#include "net/network.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace synergy {

const char* to_string(MsgKind kind) {
  switch (kind) {
    case MsgKind::kInternal: return "internal";
    case MsgKind::kExternal: return "external";
    case MsgKind::kPassedAt: return "passed_AT";
    case MsgKind::kAck: return "ack";
  }
  return "?";
}

void Message::serialize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(sender.value());
  w.u32(receiver.value());
  w.u64(transport_seq);
  w.u64(sn);
  w.u64(ndc);
  w.u8(dirty ? 1 : 0);
  w.u64(contam_sn);
  w.u64(payload);
  w.u8(tainted ? 1 : 0);
  w.u64(ack_of);
  w.u32(epoch);
  w.bytes(aux);
  w.i64(sent_at.count());
}

Message Message::deserialize(ByteReader& r) {
  auto m = try_deserialize(r);
  SYNERGY_ASSERT(m.has_value());  // trusted path: bytes we produced ourselves
  return *m;
}

std::optional<Message> Message::try_deserialize(ByteReader& r) {
  Message m;
  const std::uint8_t kind = r.u8();
  m.kind = static_cast<MsgKind>(kind);
  m.sender = ProcessId{r.u32()};
  m.receiver = ProcessId{r.u32()};
  m.transport_seq = r.u64();
  m.sn = r.u64();
  m.ndc = r.u64();
  m.dirty = r.u8() != 0;
  m.contam_sn = r.u64();
  m.payload = r.u64();
  m.tainted = r.u8() != 0;
  m.ack_of = r.u64();
  m.epoch = r.u32();
  m.aux = r.bytes();
  m.sent_at = TimePoint{r.i64()};
  if (!r.ok() || kind > static_cast<std::uint8_t>(MsgKind::kAck)) {
    return std::nullopt;
  }
  return m;
}

Network::Network(Simulator& sim, const NetworkParams& params, Rng rng)
    : sim_(sim), params_(params), rng_(rng) {
  SYNERGY_EXPECTS(params.tmin >= Duration::zero());
  SYNERGY_EXPECTS(params.tmax >= params.tmin);
  SYNERGY_EXPECTS(params.loss_probability >= 0.0 &&
                  params.loss_probability <= 1.0);
}

Network::Receiver& Network::receiver(ProcessId p) {
  const std::size_t slot = slot_of(p);
  while (slot >= receivers_.size()) receivers_.emplace_back();
  return receivers_[slot];
}

std::uint32_t Network::acquire_frame() {
  if (free_head_ != kNoFrame) {
    const std::uint32_t idx = free_head_;
    free_head_ = frames_[idx].next_free;
    return idx;
  }
  frames_.emplace_back();
  return static_cast<std::uint32_t>(frames_.size() - 1);
}

void Network::release_frame(std::uint32_t idx) {
  Frame& f = frames_[idx];
  f.msg = Message{};  // drop any aux refcount now, not at reuse
  ++f.gen;            // invalidates chain links held by a running drain
  f.live = false;
  f.head = false;
  f.next = kNoFrame;
  f.next_free = free_head_;
  free_head_ = idx;
}

void Network::attach(ProcessId p, Handler handler) {
  SYNERGY_EXPECTS(handler != nullptr);
  receiver(p).handler = std::move(handler);
}

void Network::detach(ProcessId p) {
  receiver(p).handler = nullptr;
  drop_in_transit_to(p);
}

void Network::send(Message m) {
  m.sent_at = sim_.now();
  ++sent_;
  if (params_.loss_probability > 0.0 &&
      rng_.bernoulli(params_.loss_probability)) {
    ++dropped_loss_;
    return;
  }
  inject(std::move(m), rng_.uniform(params_.tmin, params_.tmax), params_.fifo);
}

void Network::inject(Message m, Duration delay, bool respect_fifo) {
  TimePoint deliver_at = sim_.now() + delay;
  const std::size_t rslot = slot_of(m.receiver);
  Receiver& r = receiver(m.receiver);
  if (respect_fifo) {
    // Sorted by sender: a hub hears from hundreds of peers.
    const std::uint32_t sender = m.sender.value();
    const auto it = std::lower_bound(
        r.fifo.begin(), r.fifo.end(), sender,
        [](const auto& w, std::uint32_t s) { return w.first < s; });
    if (it != r.fifo.end() && it->first == sender) {
      deliver_at = std::max(deliver_at, it->second);
      it->second = deliver_at;
    } else {
      r.fifo.insert(it, {sender, deliver_at});
    }
  }

  const std::uint32_t idx = acquire_frame();
  Frame& f = frames_[idx];
  f.msg = std::move(m);
  f.live = true;
  ++in_transit_;

  if (r.batch_head != kNoFrame && r.batch_time == deliver_at &&
      r.batch_mark == sim_.schedules()) {
    // Same receiver, same tick, and nothing has entered the event queue
    // since the batch head was scheduled: chaining this frame at the tail
    // delivers it in exactly the position its own event would have taken.
    frames_[r.batch_tail].next = idx;
    r.batch_tail = idx;
    return;
  }

  const std::uint32_t gen = f.gen;
  f.head = true;
  f.handle = sim_.schedule_at(
      deliver_at, [this, idx, gen, rslot] {
        deliver_chain(idx, gen, static_cast<std::uint32_t>(rslot));
      });
  r.batch_head = idx;
  r.batch_tail = idx;
  r.batch_time = deliver_at;
  r.batch_mark = sim_.schedules();
}

void Network::deliver_chain(std::uint32_t head, std::uint32_t gen,
                            std::uint32_t rslot) {
  // This batch is no longer appendable (it is firing *now*); close the
  // receiver's open-batch registry so a zero-delay send from a handler
  // below schedules a fresh event instead of chaining onto a drained one.
  {
    Receiver& r = receivers_[rslot];
    r.batch_head = kNoFrame;
    r.batch_tail = kNoFrame;
  }

  std::uint32_t idx = head;
  while (idx != kNoFrame) {
    Frame& f = frames_[idx];
    if (f.gen != gen || !f.live) break;  // chain freed mid-drain (crash)
    Message m = std::move(f.msg);
    const std::uint32_t next = f.next;
    const std::uint32_t next_gen =
        next != kNoFrame ? frames_[next].gen : 0;
    release_frame(idx);  // before the handler: it may send (slot reuse)
    --in_transit_;

    const Duration lateness = (sim_.now() - m.sent_at) - params_.tmax;
    if (lateness > Duration::zero()) {
      ++late_deliveries_;
      if (bound_observer_) bound_observer_(m, lateness);
    }
    // Re-read the handler per frame: a handler earlier in this chain may
    // have detached (or re-attached) the receiver.
    const Handler& h = receivers_[rslot].handler;
    if (h) {
      ++delivered_;
      h(m);
    } else {
      ++dropped_no_receiver_;  // receiver crashed or is an unrecorded sink
    }
    idx = next;
    gen = next_gen;
  }
}

void Network::drop_in_transit_to(ProcessId p) {
  Receiver& r = receiver(p);
  // The deliveries backing the FIFO watermarks die below, so the
  // watermarks must die with them: a post-restart send would otherwise be
  // serialized behind the (possibly future) time of a delivery that was
  // cancelled and never happened.
  r.fifo.clear();
  r.batch_head = kNoFrame;
  r.batch_tail = kNoFrame;
  for (std::uint32_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (!f.live || f.msg.receiver != p) continue;
    if (f.head) sim_.cancel(f.handle);
    release_frame(i);
    --in_transit_;
    ++dropped_cancelled_;
  }
}

}  // namespace synergy
