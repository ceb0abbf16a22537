// Transport implementation over the in-process bus.
//
// Thread confinement: every method is called from the owning process
// thread only (the engine and the ack routing both live in the runtime's
// mailbox loop), so no locking is needed beyond the bus's own.
#pragma once

#include "net/reliable.hpp"
#include "net/transport_core.hpp"
#include "runtime/bus.hpp"

namespace synergy {

class ThreadTransport final : public Transport {
 public:
  ThreadTransport(ThreadBus& bus, ProcessId self) : bus_(bus), core_(self) {}

  std::uint64_t send(Message m) override {
    Message stamped = core_.prepare_send(std::move(m));
    const std::uint64_t seq = stamped.transport_seq;
    bus_.post(std::move(stamped));
    return seq;
  }

  bool already_consumed(const Message& m) const override {
    return core_.already_consumed(m);
  }
  void mark_consumed(const Message& m) override { core_.mark_consumed(m); }

  void ack(const Message& m) override {
    if (m.sender == kDeviceId) return;
    send(TransportCore::make_ack(m));
  }

  std::span<const Message> unacked() const override {
    return core_.unacked();
  }
  void restore_unacked(std::span<const Message> msgs) override {
    core_.restore_unacked(msgs);
  }
  std::size_t resend_unacked(std::uint32_t epoch) override {
    const auto msgs = core_.prepare_resend(epoch);
    for (const Message& m : msgs) bus_.post(m);
    return msgs.size();
  }
  Bytes snapshot_state() const override { return core_.snapshot_state(); }
  void restore_state(const Bytes& state) override {
    core_.restore_state(state);
  }
  std::uint64_t mark() override { return core_.mark(); }
  Bytes state_at(std::uint64_t mark) const override {
    return core_.state_at(mark);
  }
  void release_mark(std::uint64_t mark) override { core_.release_mark(mark); }

  /// Ack routing from the mailbox loop.
  void on_ack(const Message& m) { core_.on_ack(m.sender, m.ack_of); }

 private:
  ThreadBus& bus_;
  TransportCore core_;
};

}  // namespace synergy
