// Host-agnostic reliable-transport bookkeeping.
//
// Both transport hosts — the simulator's ReliableEndpoint and the threaded
// runtime's ThreadTransport — share this state machine: transport sequence
// stamping, the unacked-send log the TB protocols checkpoint, ack
// matching, duplicate suppression, and checkpointable snapshots. The host
// supplies only the wire (how a stamped message physically leaves).
//
// Sequencing is per destination stream: transport_seq counts messages on
// the (sender -> receiver) pair, not across all of a sender's traffic,
// and acknowledgments ride unstamped (they are idempotent control
// messages — never dedup'd, never logged, never re-sent). A receiver
// therefore observes a dense 1..N stream from each peer, which lets the
// per-peer consumption set compress to a watermark plus a sparse
// reorder tail — "every seq <= low is consumed" plus the seqs beyond the
// first gap. Without rollbacks the gaps are in-flight reorderings, and the
// dedup state (and every checkpointed transport snapshot) stays O(peers)
// instead of growing with the run's message count. A rollback leaves
// permanent gaps, though, and every later seq from that peer lands in the
// tail (EXPERIMENTS, Known limitations): a snapshot is O(peers + tail
// seqs), so encode() sizes its blob once and copies each tail in bulk.
//
// Storage is allocation-lean (every application send and consumption used
// to cost a map/set node): the stream counters and consumption sets are
// sorted small vectors, and the unacked log is a small vector in send
// order whose settled entries are tombstoned and compacted lazily, so an
// ack at a hub with hundreds of messages in flight scans a key column
// instead of shifting messages.
//
// Capture by mark (DESIGN.md §17): mark() is O(1). While a mark is live,
// every change to the dedup state appends an undo record to a journal, and
// state_at(mark) rolls a copy of the live state back to the mark and
// encodes it — byte-equal to what snapshot_state() returned at the mark.
// A journal that outgrows the state is folded: every live mark is encoded
// once and the journal is dropped, so memory stays bounded and each change
// costs amortized O(1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/serialize.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "net/message.hpp"

namespace synergy {

class TransportCore {
 public:
  explicit TransportCore(ProcessId self) : self_(self) {}

  ProcessId self() const { return self_; }

  /// Stamp sender + the next transport_seq of the (self -> receiver)
  /// stream on `m` and record it in the unacked log when it expects an
  /// acknowledgment (non-ack, non-device). Acks pass through unstamped
  /// (transport_seq 0). The caller puts the returned message on the wire.
  Message prepare_send(Message m);

  /// An acknowledgment from `from` arrived: settle the matching unacked
  /// entry of the (self -> from) stream.
  void on_ack(ProcessId from, std::uint64_t ack_of);

  /// Build the acknowledgment for a received message (empty optionality is
  /// signalled by kDeviceId senders — the caller skips those).
  static Message make_ack(const Message& m);

  bool already_consumed(const Message& m) const;
  void mark_consumed(const Message& m);

  /// Unacked-send log, in send order. Borrowed view into the core's own
  /// storage — valid until the next send/ack/restore.
  std::span<const Message> unacked() const;
  void restore_unacked(std::span<const Message> msgs);

  /// Re-stamp every unacked message with `epoch` in place and hand back
  /// the log for the host to put copies on the wire.
  std::span<const Message> prepare_resend(std::uint32_t epoch);

  /// Encode the dedup state (send counters + consumed sets). Every encode
  /// is counted below.
  Bytes snapshot_state() const;
  void restore_state(const Bytes& state);

  /// A capture point for the dedup state, in O(1).
  std::uint64_t mark();
  /// The dedup state as it stood at `mark`, encoded: byte-equal to what
  /// snapshot_state() returned when the mark was taken. `mark` must be
  /// live (taken and not released).
  Bytes state_at(std::uint64_t mark) const;
  /// `mark` will not be read again. With no mark left, the core stops
  /// journaling.
  void release_mark(std::uint64_t mark);

  std::size_t unacked_count() const { return unacked_live_; }
  /// Largest unacked-log size ever observed: the monitor's unacked-bound
  /// audit and the campaign report use this to show how far a multi-epoch
  /// partition pushed the log.
  std::size_t unacked_high_water() const { return unacked_high_water_; }
  std::uint64_t duplicates_suppressed() const { return dups_; }
  /// Encode counters for the mission report's ckpt_* rows: misses counts
  /// encodes and hits is always 0, since no encode is ever skipped. The
  /// names are the ones the perfbench harness reads.
  std::uint64_t snapshot_cache_hits() const { return 0; }
  std::uint64_t snapshot_cache_misses() const { return encodes_; }
  std::uint64_t snapshot_bytes_encoded() const { return bytes_encoded_; }

 private:
  /// Consumption log for one peer: every transport seq <= `low` is
  /// consumed, plus the sorted seqs in `tail` (all > low + 1). Peers are
  /// kept sorted by id so snapshot iteration is deterministic.
  struct PeerConsumed {
    std::uint32_t peer;
    std::uint64_t low = 0;
    SmallVec<std::uint64_t, 8> tail;
  };
  /// Next transport_seq of one outgoing (self -> dest) stream. Sorted by
  /// dest id.
  struct DestStream {
    std::uint32_t dest;
    std::uint64_t next = 1;
  };
  using Streams = SmallVec<DestStream, 4>;
  using Consumed = SmallVec<PeerConsumed, 4>;

  /// How to undo one change to the dedup state.
  struct Undo {
    enum class Op : std::uint8_t {
      kStreamAdded,   ///< erase stream `id`
      kStreamNext,    ///< stream `id`'s next was `a`
      kPeerAdded,     ///< erase peer `id`
      kLowRaised,     ///< peer `id`'s low was `a`; it absorbed `b` tail seqs
      kTailInserted,  ///< peer `id`'s tail gained seq `a`
    };
    Op op;
    std::uint32_t id;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };
  /// One live mark: its journal position, and its encoding once folded.
  struct MarkSlot {
    std::uint64_t id;
    std::uint64_t pos;
    bool folded = false;
    Bytes state;
  };

  /// Unacked-log key of (dest, seq); settled entries hold kSettled.
  static std::uint64_t unacked_key(std::uint32_t dest, std::uint64_t seq);
  static constexpr std::uint64_t kSettled = ~std::uint64_t{0};
  void compact_unacked() const;

  static DestStream* find_stream(Streams& streams, std::uint32_t dest);
  static PeerConsumed* find_peer(Consumed& consumed, std::uint32_t peer);
  const PeerConsumed* find_peer(std::uint32_t peer) const;
  PeerConsumed& peer_entry(std::uint32_t peer);
  std::uint64_t& next_seq_for(std::uint32_t dest);

  const MarkSlot& live_mark(std::uint64_t mark) const;
  bool journaling() const { return open_marks_ > 0; }
  void journal(Undo undo) { journal_.push_back(undo); }
  /// Undo `undo` on a copy of the dedup state.
  static void undo(const Undo& undo, Streams& streams, Consumed& consumed);
  /// Drop the journal prefix no open mark reads; if the rest still
  /// outgrows the state, fold every open mark. Only while journaling().
  void trim_journal();
  void fold_marks();
  Bytes encode(const Streams& streams, const Consumed& consumed) const;

  ProcessId self_;
  Streams streams_;  // sorted by dest id
  // Send order. Settled entries stay in place (key kSettled) until
  // unacked()/prepare_resend() or a majority of dead entries compacts
  // them away; `unacked_head_` skips the settled prefix.
  mutable SmallVec<Message, 4> unacked_;
  mutable SmallVec<std::uint64_t, 4> unacked_keys_;
  mutable std::size_t unacked_head_ = 0;
  std::size_t unacked_live_ = 0;
  std::size_t unacked_high_water_ = 0;
  Consumed consumed_;  // sorted by peer id
  // Live marks in creation order. Folding folds every open mark, so the
  // last `open_marks_` are the ones still reading the journal, whose first
  // record is at absolute position `journal_base_`.
  SmallVec<MarkSlot, 4> marks_;
  std::uint64_t next_mark_ = 0;
  std::size_t open_marks_ = 0;
  std::vector<Undo> journal_;
  std::uint64_t journal_base_ = 0;
  mutable std::uint64_t dups_ = 0;
  mutable std::uint64_t encodes_ = 0;
  mutable std::uint64_t bytes_encoded_ = 0;
};

}  // namespace synergy
