#include "net/reliable.hpp"

#include <utility>

#include "common/assert.hpp"

namespace synergy {

ReliableEndpoint::ReliableEndpoint(Network& net, ProcessId self,
                                   Handler handler)
    : net_(net), core_(self), handler_(std::move(handler)) {
  SYNERGY_EXPECTS(handler_ != nullptr);
  net_.attach(self, [this](const Message& m) { on_network_delivery(m); });
}

ReliableEndpoint::~ReliableEndpoint() {
  if (attached_) net_.detach(core_.self());
}

void ReliableEndpoint::detach_network() {
  if (!attached_) return;
  net_.detach(core_.self());
  attached_ = false;
}

void ReliableEndpoint::reattach_network() {
  if (attached_) return;
  net_.attach(core_.self(),
              [this](const Message& m) { on_network_delivery(m); });
  attached_ = true;
}

std::uint64_t ReliableEndpoint::send(Message m) {
  const Message stamped = core_.prepare_send(std::move(m));
  const std::uint64_t seq = stamped.transport_seq;
  net_.send(stamped);
  return seq;
}

bool ReliableEndpoint::already_consumed(const Message& m) const {
  return core_.already_consumed(m);
}

void ReliableEndpoint::mark_consumed(const Message& m) {
  core_.mark_consumed(m);
}

void ReliableEndpoint::ack(const Message& m) {
  if (m.sender == kDeviceId) return;
  send(TransportCore::make_ack(m));
  ++acks_sent_;
}

std::span<const Message> ReliableEndpoint::unacked() const {
  return core_.unacked();
}

void ReliableEndpoint::restore_unacked(std::span<const Message> msgs) {
  core_.restore_unacked(msgs);
}

std::size_t ReliableEndpoint::resend_unacked(std::uint32_t epoch) {
  // The view stays stable across the loop: net_.send only schedules
  // simulator events, so no ack can settle (and mutate the log) before
  // this call returns.
  const std::span<const Message> msgs = core_.prepare_resend(epoch);
  for (const Message& m : msgs) {
    net_.send(m);  // same transport_seq: receiver dedups if it consumed it
  }
  return msgs.size();
}

Bytes ReliableEndpoint::snapshot_state() const { return core_.snapshot_state(); }

void ReliableEndpoint::restore_state(const Bytes& state) {
  core_.restore_state(state);
}

void ReliableEndpoint::on_network_delivery(const Message& m) {
  if (m.kind == MsgKind::kAck) {
    core_.on_ack(m.sender, m.ack_of);
    return;
  }
  handler_(m);
}

}  // namespace synergy
