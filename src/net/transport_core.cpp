#include "net/transport_core.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace synergy {

namespace {

constexpr auto dest_below = [](const auto& s, std::uint32_t dest) {
  return s.dest < dest;
};
constexpr auto peer_below = [](const auto& pc, std::uint32_t peer) {
  return pc.peer < peer;
};

}  // namespace

// ---- Unacked log ------------------------------------------------------------

std::uint64_t TransportCore::unacked_key(std::uint32_t dest,
                                         std::uint64_t seq) {
  // Process ids stay below kDeviceId (16 bits) and device messages are
  // never logged, so no key collides with kSettled.
  SYNERGY_EXPECTS(dest < kDeviceId.value() && seq < (std::uint64_t{1} << 48));
  return (std::uint64_t{dest} << 48) | seq;
}

Message TransportCore::prepare_send(Message m) {
  m.sender = self_;
  // Acks are idempotent control messages: no stream seq (never dedup'd),
  // no unacked entry (no ack-of-ack regress), no snapshotted state change.
  if (m.kind == MsgKind::kAck) {
    m.transport_seq = 0;
    return m;
  }
  if (journaling()) trim_journal();
  m.transport_seq = next_seq_for(m.receiver.value())++;
  // Device messages are fire-and-forget: the external world never replies.
  if (m.receiver != kDeviceId) {
    unacked_keys_.push_back(unacked_key(m.receiver.value(), m.transport_seq));
    unacked_.push_back(m);
    ++unacked_live_;
    unacked_high_water_ = std::max(unacked_high_water_, unacked_live_);
  }
  return m;
}

void TransportCore::on_ack(ProcessId from, std::uint64_t ack_of) {
  // The log is in send order, not seq order, and at a hub it holds
  // hundreds of in-flight multicast copies: scan the key column from the
  // first live entry and tombstone the match instead of erasing it.
  if (from == kDeviceId || ack_of >= (std::uint64_t{1} << 48)) return;
  const std::uint64_t key = unacked_key(from.value(), ack_of);
  for (std::size_t i = unacked_head_; i < unacked_keys_.size(); ++i) {
    if (unacked_keys_[i] != key) continue;
    unacked_keys_[i] = kSettled;
    --unacked_live_;
    while (unacked_head_ < unacked_keys_.size() &&
           unacked_keys_[unacked_head_] == kSettled) {
      ++unacked_head_;
    }
    if (unacked_keys_.size() > 2 * unacked_live_) compact_unacked();
    return;
  }
}

void TransportCore::compact_unacked() const {
  std::size_t kept = 0;
  for (std::size_t i = unacked_head_; i < unacked_keys_.size(); ++i) {
    if (unacked_keys_[i] == kSettled) continue;
    if (kept != i) {
      unacked_keys_[kept] = unacked_keys_[i];
      unacked_[kept] = std::move(unacked_[i]);
    }
    ++kept;
  }
  unacked_keys_.erase(unacked_keys_.begin() + static_cast<std::ptrdiff_t>(kept),
                      unacked_keys_.end());
  unacked_.erase(unacked_.begin() + static_cast<std::ptrdiff_t>(kept),
                 unacked_.end());
  unacked_head_ = 0;
}

std::span<const Message> TransportCore::unacked() const {
  if (unacked_.size() != unacked_live_) compact_unacked();
  return {unacked_.data(), unacked_.size()};
}

void TransportCore::restore_unacked(std::span<const Message> msgs) {
  fold_marks();
  // Checkpoints copy the log in send order; restoring preserves it.
  unacked_.assign(msgs.begin(), msgs.end());
  unacked_keys_.clear();
  for (const Message& m : unacked_) {
    SYNERGY_EXPECTS(m.sender == self_);
    unacked_keys_.push_back(unacked_key(m.receiver.value(), m.transport_seq));
    auto& next = next_seq_for(m.receiver.value());
    next = std::max(next, m.transport_seq + 1);
  }
  unacked_head_ = 0;
  unacked_live_ = unacked_.size();
  unacked_high_water_ = std::max(unacked_high_water_, unacked_live_);
}

std::span<const Message> TransportCore::prepare_resend(std::uint32_t epoch) {
  if (unacked_.size() != unacked_live_) compact_unacked();
  for (Message& m : unacked_) {
    m.epoch = epoch;  // new incarnation: receivers must not fence these
  }
  return {unacked_.data(), unacked_.size()};
}

Message TransportCore::make_ack(const Message& m) {
  Message ack;
  ack.kind = MsgKind::kAck;
  ack.receiver = m.sender;
  ack.ack_of = m.transport_seq;
  return ack;
}

// ---- Dedup state ------------------------------------------------------------

TransportCore::DestStream* TransportCore::find_stream(Streams& streams,
                                                      std::uint32_t dest) {
  const auto it =
      std::lower_bound(streams.begin(), streams.end(), dest, dest_below);
  return it != streams.end() && it->dest == dest ? it : nullptr;
}

TransportCore::PeerConsumed* TransportCore::find_peer(Consumed& consumed,
                                                      std::uint32_t peer) {
  const auto it =
      std::lower_bound(consumed.begin(), consumed.end(), peer, peer_below);
  return it != consumed.end() && it->peer == peer ? it : nullptr;
}

const TransportCore::PeerConsumed* TransportCore::find_peer(
    std::uint32_t peer) const {
  const auto it =
      std::lower_bound(consumed_.begin(), consumed_.end(), peer, peer_below);
  return it != consumed_.end() && it->peer == peer ? it : nullptr;
}

std::uint64_t& TransportCore::next_seq_for(std::uint32_t dest) {
  auto it =
      std::lower_bound(streams_.begin(), streams_.end(), dest, dest_below);
  if (it == streams_.end() || it->dest != dest) {
    it = streams_.insert(it, DestStream{dest, 1});
    if (journaling()) journal({Undo::Op::kStreamAdded, dest});
  } else if (journaling()) {
    journal({Undo::Op::kStreamNext, dest, it->next});
  }
  return it->next;
}

TransportCore::PeerConsumed& TransportCore::peer_entry(std::uint32_t peer) {
  auto it =
      std::lower_bound(consumed_.begin(), consumed_.end(), peer, peer_below);
  if (it != consumed_.end() && it->peer == peer) return *it;
  if (journaling()) journal({Undo::Op::kPeerAdded, peer});
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
  if (journaling()) trim_journal();
  PeerConsumed& pc = peer_entry(m.sender.value());
  const std::uint64_t seq = m.transport_seq;
  if (seq <= pc.low) return;  // idempotent
  if (seq == pc.low + 1) {
    // Common case: in-order arrival extends the watermark, then absorbs
    // any tail seqs the gap was holding back.
    const std::uint64_t old_low = pc.low;
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
    if (journaling()) {
      journal({Undo::Op::kLowRaised, pc.peer, old_low, absorbed});
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
  if (journaling()) journal({Undo::Op::kTailInserted, pc.peer, seq});
}

Bytes TransportCore::encode(const Streams& streams,
                            const Consumed& consumed) const {
  // Two u32 counts, 12 B per stream, 16 B + 8 B per tail seq per peer:
  // sized once, each tail copied in bulk.
  std::size_t size = 8 + 12 * streams.size();
  for (const PeerConsumed& pc : consumed) size += 16 + 8 * pc.tail.size();
  ByteWriter w;
  w.reserve(size);
  w.u32(static_cast<std::uint32_t>(streams.size()));
  for (const DestStream& s : streams) {
    w.u32(s.dest);
    w.u64(s.next);
  }
  w.u32(static_cast<std::uint32_t>(consumed.size()));
  for (const PeerConsumed& pc : consumed) {
    w.u32(pc.peer);
    w.u64(pc.low);
    w.u32(static_cast<std::uint32_t>(pc.tail.size()));
    w.u64s({pc.tail.data(), pc.tail.size()});
  }
  ++encodes_;
  bytes_encoded_ += w.size();
  return w.take();
}

Bytes TransportCore::snapshot_state() const {
  return encode(streams_, consumed_);
}

void TransportCore::restore_state(const Bytes& state) {
  fold_marks();
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

// ---- Marks ------------------------------------------------------------------

std::uint64_t TransportCore::mark() {
  marks_.push_back(
      MarkSlot{next_mark_, journal_base_ + journal_.size(), false, {}});
  ++open_marks_;
  return next_mark_++;
}

const TransportCore::MarkSlot& TransportCore::live_mark(
    std::uint64_t mark) const {
  const auto it = std::lower_bound(
      marks_.begin(), marks_.end(), mark,
      [](const MarkSlot& m, std::uint64_t id) { return m.id < id; });
  SYNERGY_EXPECTS(it != marks_.end() && it->id == mark);
  return *it;
}

Bytes TransportCore::state_at(std::uint64_t mark) const {
  const MarkSlot& slot = live_mark(mark);
  if (slot.folded) return slot.state;
  const std::size_t at = static_cast<std::size_t>(slot.pos - journal_base_);
  if (at == journal_.size()) return snapshot_state();
  Streams streams = streams_;
  Consumed consumed = consumed_;
  for (std::size_t j = journal_.size(); j > at;) {
    undo(journal_[--j], streams, consumed);
  }
  return encode(streams, consumed);
}

void TransportCore::release_mark(std::uint64_t mark) {
  const auto it = std::lower_bound(
      marks_.begin(), marks_.end(), mark,
      [](const MarkSlot& m, std::uint64_t id) { return m.id < id; });
  if (it == marks_.end() || it->id != mark) return;
  if (!it->folded) --open_marks_;
  marks_.erase(it);
  if (open_marks_ == 0) {
    journal_base_ += journal_.size();
    journal_.clear();
  }
}

void TransportCore::undo(const Undo& u, Streams& streams, Consumed& consumed) {
  switch (u.op) {
    case Undo::Op::kStreamAdded:
      streams.erase(find_stream(streams, u.id));
      return;
    case Undo::Op::kStreamNext:
      find_stream(streams, u.id)->next = u.a;
      return;
    case Undo::Op::kPeerAdded:
      consumed.erase(find_peer(consumed, u.id));
      return;
    case Undo::Op::kLowRaised: {
      // The watermark moved from a to a + 1 + b, absorbing the tail seqs
      // a + 2 .. a + 1 + b from the front of the tail.
      PeerConsumed& pc = *find_peer(consumed, u.id);
      pc.low = u.a;
      for (std::uint64_t k = u.b; k > 0; --k) {
        pc.tail.insert(pc.tail.begin(), u.a + 1 + k);
      }
      return;
    }
    case Undo::Op::kTailInserted: {
      PeerConsumed& pc = *find_peer(consumed, u.id);
      pc.tail.erase(std::lower_bound(pc.tail.begin(), pc.tail.end(), u.a));
      return;
    }
  }
}

void TransportCore::trim_journal() {
  // Rolling back costs about as much as copying the state once the
  // journal is as long as the state: past that, folding is cheaper.
  const std::size_t limit = 2 * (streams_.size() + consumed_.size()) + 64;
  if (journal_.size() <= limit) return;
  const std::uint64_t oldest = marks_[marks_.size() - open_marks_].pos;
  const auto unread = static_cast<std::ptrdiff_t>(oldest - journal_base_);
  if (unread > 0) {
    journal_.erase(journal_.begin(), journal_.begin() + unread);
    journal_base_ = oldest;
  }
  if (journal_.size() > limit) fold_marks();
}

void TransportCore::fold_marks() {
  if (open_marks_ == 0) return;
  Streams streams = streams_;
  Consumed consumed = consumed_;
  std::size_t j = journal_.size();
  for (std::size_t k = marks_.size(); k-- > marks_.size() - open_marks_;) {
    MarkSlot& slot = marks_[k];
    const std::size_t at = static_cast<std::size_t>(slot.pos - journal_base_);
    while (j > at) undo(journal_[--j], streams, consumed);
    slot.state = encode(streams, consumed);
    slot.folded = true;
  }
  open_marks_ = 0;
  journal_base_ += journal_.size();
  journal_.clear();
}

}  // namespace synergy
