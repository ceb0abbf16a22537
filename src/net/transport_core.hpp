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
// reorder tail — "every seq <= low is consumed" plus the few seqs beyond
// the first in-flight gap. That keeps the dedup state (and every
// checkpointed transport snapshot) O(peers), instead of growing with the
// total message count of the run — the term that made long large-topology
// missions quadratic.
//
// Storage is allocation-lean (every application send and consumption used
// to cost a map/set node): the unacked log is a small vector in send
// order, the stream counters and consumption sets sorted small vectors.
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
  std::span<const Message> unacked() const {
    return {unacked_.data(), unacked_.size()};
  }
  void restore_unacked(std::span<const Message> msgs);

  /// Re-stamp every unacked message with `epoch` in place and hand back
  /// the log for the host to put copies on the wire.
  std::span<const Message> prepare_resend(std::uint32_t epoch);

  /// Encode the dedup state (send counters + consumed sets). Every call
  /// is counted below.
  Bytes snapshot_state() const;
  void restore_state(const Bytes& state);

  std::size_t unacked_count() const { return unacked_.size(); }
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
  const PeerConsumed* find_peer(std::uint32_t peer) const;
  PeerConsumed& peer_entry(std::uint32_t peer);
  std::uint64_t& next_seq_for(std::uint32_t dest);

  ProcessId self_;
  SmallVec<DestStream, 4> streams_;  // sorted by dest id
  SmallVec<Message, 4> unacked_;  // send order
  std::size_t unacked_high_water_ = 0;
  SmallVec<PeerConsumed, 4> consumed_;  // sorted by peer id
  mutable std::uint64_t dups_ = 0;
  mutable std::uint64_t encodes_ = 0;
  mutable std::uint64_t bytes_encoded_ = 0;
};

}  // namespace synergy
