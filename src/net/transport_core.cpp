#include "net/transport_core.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace synergy {

Message TransportCore::prepare_send(Message m) {
  m.sender = self_;
  // Acks are idempotent control messages: no stream seq (never dedup'd),
  // no unacked entry (no ack-of-ack regress), no snapshotted state change.
  if (m.kind == MsgKind::kAck) {
    m.transport_seq = 0;
    return m;
  }
  m.transport_seq = next_seq_for(m.receiver.value())++;
  // Device messages are fire-and-forget: the external world never replies.
  if (m.receiver != kDeviceId) {
    unacked_.push_back(m);
    unacked_high_water_ = std::max(unacked_high_water_, unacked_.size());
  }
  return m;
}

void TransportCore::on_ack(ProcessId from, std::uint64_t ack_of) {
  // Send order, not seq order, so this is a scan — the log only holds
  // in-flight messages, so it is short.
  for (auto it = unacked_.begin(); it != unacked_.end(); ++it) {
    if (it->receiver == from && it->transport_seq == ack_of) {
      unacked_.erase(it);
      return;
    }
  }
}

std::uint64_t& TransportCore::next_seq_for(std::uint32_t dest) {
  auto it = std::lower_bound(
      streams_.begin(), streams_.end(), dest,
      [](const DestStream& s, std::uint32_t d) { return s.dest < d; });
  if (it == streams_.end() || it->dest != dest) {
    it = streams_.insert(it, DestStream{dest, 1});
  }
  return it->next;
}

Message TransportCore::make_ack(const Message& m) {
  Message ack;
  ack.kind = MsgKind::kAck;
  ack.receiver = m.sender;
  ack.ack_of = m.transport_seq;
  return ack;
}

const TransportCore::PeerConsumed* TransportCore::find_peer(
    std::uint32_t peer) const {
  const auto it = std::lower_bound(
      consumed_.begin(), consumed_.end(), peer,
      [](const PeerConsumed& pc, std::uint32_t p) { return pc.peer < p; });
  if (it != consumed_.end() && it->peer == peer) return it;
  return nullptr;
}

TransportCore::PeerConsumed& TransportCore::peer_entry(std::uint32_t peer) {
  auto it = std::lower_bound(
      consumed_.begin(), consumed_.end(), peer,
      [](const PeerConsumed& pc, std::uint32_t p) { return pc.peer < p; });
  if (it != consumed_.end() && it->peer == peer) return *it;
  return *consumed_.insert(it, PeerConsumed{peer, 0, {}});
}

bool TransportCore::already_consumed(const Message& m) const {
  SYNERGY_EXPECTS(m.kind != MsgKind::kAck);
  const PeerConsumed* pc = find_peer(m.sender.value());
  if (pc == nullptr) return false;
  const bool dup = m.transport_seq <= pc->low ||
                   std::binary_search(pc->tail.begin(), pc->tail.end(),
                                      m.transport_seq);
  if (dup) ++dups_;
  return dup;
}

void TransportCore::mark_consumed(const Message& m) {
  SYNERGY_EXPECTS(m.kind != MsgKind::kAck);
  PeerConsumed& pc = peer_entry(m.sender.value());
  const std::uint64_t seq = m.transport_seq;
  if (seq <= pc.low) return;  // idempotent
  if (seq == pc.low + 1) {
    // Common case: in-order arrival extends the watermark, then absorbs
    // any tail seqs the gap was holding back.
    ++pc.low;
    std::size_t absorbed = 0;
    while (absorbed < pc.tail.size() && pc.tail[absorbed] == pc.low + 1) {
      ++pc.low;
      ++absorbed;
    }
    if (absorbed > 0) {
      pc.tail.erase(pc.tail.begin(),
                    pc.tail.begin() + static_cast<std::ptrdiff_t>(absorbed));
    }
    return;
  }
  // Out-of-order arrival: park it in the (tiny) sorted tail.
  if (pc.tail.empty() || seq > pc.tail.back()) {
    pc.tail.push_back(seq);
  } else {
    const auto it = std::lower_bound(pc.tail.begin(), pc.tail.end(), seq);
    if (it != pc.tail.end() && *it == seq) return;  // idempotent
    pc.tail.insert(it, seq);
  }
}

void TransportCore::restore_unacked(std::span<const Message> msgs) {
  // Checkpoints copy the log in send order; restoring preserves it.
  unacked_.assign(msgs.begin(), msgs.end());
  for (const Message& m : unacked_) {
    SYNERGY_EXPECTS(m.sender == self_);
    auto& next = next_seq_for(m.receiver.value());
    next = std::max(next, m.transport_seq + 1);
  }
  unacked_high_water_ = std::max(unacked_high_water_, unacked_.size());
}

std::span<const Message> TransportCore::prepare_resend(std::uint32_t epoch) {
  for (Message& m : unacked_) {
    m.epoch = epoch;  // new incarnation: receivers must not fence these
  }
  return unacked();
}

Bytes TransportCore::snapshot_state() const {
  // Two u32 counts, 12 B per stream, 16 B + 8 B per tail seq per peer.
  std::size_t size = 8 + 12 * streams_.size();
  for (const PeerConsumed& pc : consumed_) size += 16 + 8 * pc.tail.size();
  ByteWriter w;
  w.reserve(size);
  w.u32(static_cast<std::uint32_t>(streams_.size()));
  for (const DestStream& s : streams_) {
    w.u32(s.dest);
    w.u64(s.next);
  }
  w.u32(static_cast<std::uint32_t>(consumed_.size()));
  for (const PeerConsumed& pc : consumed_) {
    w.u32(pc.peer);
    w.u64(pc.low);
    w.u32(static_cast<std::uint32_t>(pc.tail.size()));
    for (auto s : pc.tail) w.u64(s);
  }
  ++encodes_;
  bytes_encoded_ += w.size();
  return w.take();
}

void TransportCore::restore_state(const Bytes& state) {
  ByteReader r(state);
  // Stream counters merge by max: rolling a counter back would re-issue
  // seqs that receivers may have consumed, and their dedup would then
  // silently drop fresh post-recovery messages.
  const std::uint32_t nstreams = r.u32();
  for (std::uint32_t i = 0; i < nstreams; ++i) {
    const std::uint32_t dest = r.u32();
    const std::uint64_t next = r.u64();
    auto& cur = next_seq_for(dest);
    cur = std::max(cur, next);
  }
  consumed_.clear();
  const std::uint32_t peers = r.u32();
  for (std::uint32_t i = 0; i < peers; ++i) {
    const std::uint32_t peer = r.u32();
    PeerConsumed& pc = peer_entry(peer);
    pc.low = r.u64();
    const std::uint32_t n = r.u32();
    pc.tail.reserve(n);
    for (std::uint32_t j = 0; j < n; ++j) pc.tail.push_back(r.u64());
  }
}

}  // namespace synergy
