// Reliable per-process transport endpoint with acknowledgment tracking.
//
// The TB protocol (Neves & Fuchs) avoids blocking-for-recoverability by
// saving, as part of the next stable checkpoint, every sent message not yet
// acknowledged; after a hardware rollback those messages are re-sent and
// duplicates are suppressed at the receiver. Two details are load-bearing:
//
//  1. A message is acknowledged when the receiving *protocol engine* acks
//     it — immediately for consumptions anchored in the current recovery
//     content, deferred (validation-gated) otherwise. Transport-level
//     delivery alone never acknowledges.
//  2. Duplicate-suppression state is part of the receiver's checkpoint: a
//     process that rolls back must re-accept re-sent messages it had
//     consumed after the checkpoint, and keep suppressing ones it consumed
//     before it. Engines therefore split the duplicate *check* from the
//     consumption *mark* (the mark lands after any Type-1 checkpoint).
//
// Bookkeeping lives in TransportCore (shared with the threaded runtime);
// this class binds it to the simulated Network.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "common/serialize.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "net/transport_core.hpp"

namespace synergy {

/// Host-agnostic transport surface used by protocol engines (the threaded
/// runtime provides its own implementation).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Send `m` (the transport stamps sender + transport_seq). Returns the
  /// transport_seq assigned to the message.
  virtual std::uint64_t send(Message m) = 0;

  /// Duplicate check WITHOUT marking: has `m` already been consumed?
  virtual bool already_consumed(const Message& m) const = 0;

  /// Record `m` as consumed. Engines call this *after* the protocol
  /// handler ran: a Type-1 checkpoint established immediately before
  /// consuming `m` must capture a transport state that does NOT yet
  /// contain `m`, or a post-rollback re-send of `m` would be wrongly
  /// suppressed as a duplicate.
  virtual void mark_consumed(const Message& m) = 0;

  /// Convenience: mark-if-new, returning true iff `m` was fresh.
  bool consume(const Message& m) {
    if (already_consumed(m)) return false;
    mark_consumed(m);
    return true;
  }

  /// Acknowledge message `m` to its sender. Engines call this immediately
  /// or deferred (validation-gated acknowledgment: a message consumed
  /// while the process is potentially contaminated is not yet anchored in
  /// its recovery content, so the ack is withheld until the contamination
  /// clears).
  virtual void ack(const Message& m) = 0;

  /// Unacked-send log (in send order). A borrowed view into the
  /// transport's own storage: valid until the next send/ack/restore.
  /// Callers that need to keep it (checkpoint records) copy it out.
  virtual std::span<const Message> unacked() const = 0;

  /// Replace the unacked log (hardware-fault recovery).
  virtual void restore_unacked(std::span<const Message> msgs) = 0;

  /// Re-send every unacked message, re-stamped with `epoch` (the new
  /// recovery incarnation, so receivers don't fence them as stale).
  /// Returns how many were re-sent.
  virtual std::size_t resend_unacked(std::uint32_t epoch) = 0;

  /// Serialize / restore dedup state + send counter for checkpoints.
  virtual Bytes snapshot_state() const = 0;
  virtual void restore_state(const Bytes& state) = 0;

  /// Capture the dedup state by mark instead of by value: mark() is
  /// O(1), and state_at(mark) later encodes exactly what snapshot_state()
  /// returned when the mark was taken (TransportCore). Release a mark
  /// once it will not be read again.
  virtual std::uint64_t mark() = 0;
  virtual Bytes state_at(std::uint64_t mark) const = 0;
  virtual void release_mark(std::uint64_t mark) = 0;
};

class ReliableEndpoint final : public Transport {
 public:
  using Handler = std::function<void(const Message&)>;

  /// Attaches to the network as `self`. All non-ack deliveries are
  /// forwarded to `handler` (duplicates included — the engine decides when
  /// to consume).
  ReliableEndpoint(Network& net, ProcessId self, Handler handler);
  ~ReliableEndpoint() override;

  ReliableEndpoint(const ReliableEndpoint&) = delete;
  ReliableEndpoint& operator=(const ReliableEndpoint&) = delete;

  ProcessId self() const { return core_.self(); }

  std::uint64_t send(Message m) override;
  bool already_consumed(const Message& m) const override;
  void mark_consumed(const Message& m) override;
  void ack(const Message& m) override;
  std::span<const Message> unacked() const override;
  void restore_unacked(std::span<const Message> msgs) override;
  std::size_t resend_unacked(std::uint32_t epoch) override;
  Bytes snapshot_state() const override;
  void restore_state(const Bytes& state) override;
  std::uint64_t mark() override { return core_.mark(); }
  Bytes state_at(std::uint64_t mark) const override {
    return core_.state_at(mark);
  }
  void release_mark(std::uint64_t mark) override { core_.release_mark(mark); }

  /// TransportCore's encode counters.
  std::uint64_t snapshot_cache_hits() const {
    return core_.snapshot_cache_hits();
  }
  std::uint64_t snapshot_cache_misses() const {
    return core_.snapshot_cache_misses();
  }
  std::uint64_t snapshot_bytes_encoded() const {
    return core_.snapshot_bytes_encoded();
  }

  /// Crash semantics: stop receiving (network deliveries to this process
  /// are dropped while detached).
  void detach_network();
  /// Rejoin the network after a restart.
  void reattach_network();
  bool attached() const { return attached_; }

  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t duplicates_suppressed() const {
    return core_.duplicates_suppressed();
  }
  std::size_t unacked_count() const { return core_.unacked_count(); }
  std::size_t unacked_high_water() const {
    return core_.unacked_high_water();
  }

 private:
  void on_network_delivery(const Message& m);

  Network& net_;
  TransportCore core_;
  Handler handler_;
  bool attached_ = true;
  std::uint64_t acks_sent_ = 0;
};

}  // namespace synergy
