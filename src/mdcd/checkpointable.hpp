// The protocol-engine base: the half of a process's error-containment
// algorithm that every engine shares, and the surface a TB checkpointing
// engine and a node's crash / restart lifecycle drive.
//
// Both the canonical three-process MDCD engines (mdcd/engine.hpp) and the
// generalized N-component engine (src/general) derive from it, so the same
// adapted TB protocol coordinates either and the same hardware restart
// (coord/node.hpp, coord/hw_recovery.hpp) recovers either (DESIGN.md §23).
// The base owns:
//
//   - delivery: recovery-epoch fencing, duplicate handling and
//     validation-gated acknowledgments (acks deferred while the
//     contamination flag is set, flushed when it clears);
//   - blocking periods: application sends and messages are held in arrival
//     order, while (modified variant) passed-AT notifications are still
//     handled behind the Ndc gate (paper §3, modification 2);
//   - the view-history handle, msg_SN, the recovery epoch, the Ndc
//     provider and the contamination-cleared observer;
//   - the capture skeleton of a checkpoint record and the common half of a
//     restore (copy-on-restore of the view history included).
//
// A derived engine supplies only its contamination model through the
// hooks below: what a send, an application message and a validation do,
// the contamination flag, the protocol blob's encoding, and its part of a
// software recovery (the end of guarded operation and, for a shadow, the
// takeover; mdcd/recovery.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <variant>

#include "common/small_vec.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "mdcd/config.hpp"
#include "mdcd/services.hpp"
#include "mdcd/views.hpp"
#include "storage/checkpoint.hpp"

namespace synergy {

class CheckpointableProcess {
 public:
  virtual ~CheckpointableProcess() = default;

  CheckpointableProcess(const CheckpointableProcess&) = delete;
  CheckpointableProcess& operator=(const CheckpointableProcess&) = delete;

  ProcessId self() const { return services_.self; }
  const MdcdConfig& config() const { return config_; }
  /// Current true time as seen through the host services (used by
  /// coordination layers for trace stamps).
  TimePoint current_time() const { return services_.now(); }

  // ---- Workload / transport events ---------------------------------------

  /// The application wants to emit a message (external or internal); the
  /// engine decides what that means. Deferred during blocking.
  void on_app_send(bool external, std::uint64_t input);

  /// Entry point for every non-ack delivery addressed to this process.
  void on_message(const Message& m);

  // ---- Blocking control (driven by the TB layer) -------------------------

  void begin_blocking();
  /// Ends the period and drains what it held, in arrival order.
  void end_blocking();
  bool in_blocking() const { return blocking_; }

  // ---- Coordination surface ----------------------------------------------

  /// The contamination bit the TB layer consults when choosing stable
  /// checkpoint contents.
  virtual bool contamination_flag() const = 0;

  /// The most recent volatile checkpoint (rollback target; guaranteed to
  /// exist whenever contamination_flag() is set).
  virtual const std::optional<CheckpointRecord>& latest_volatile() const {
    return services_.vstore->latest();
  }

  /// Supplies the process's current stable-checkpoint sequence number
  /// (owned by the TB engine). Defaults to a constant 0, which makes the
  /// Ndc gate vacuous when no TB protocol runs — the original MDCD setup.
  void set_ndc_provider(std::function<StableSeq()> fn);

  /// Observer fired whenever the contamination flag transitions 1 -> 0
  /// (the adapted TB engine uses it to abort-and-replace an in-progress
  /// stable write during a blocking period).
  void set_contamination_cleared_observer(std::function<void()> fn) {
    contamination_cleared_ = std::move(fn);
  }

  /// Observer fired with every record make_record builds (the view
  /// history's differential tests copy the live views here).
  void set_record_observer(
      std::function<void(const CheckpointRecord&)> fn) {
    record_observer_ = std::move(fn);
  }

  // ---- Recovery / lifecycle ----------------------------------------------

  /// A terminated process ignores all events (a retired active; any
  /// process while its node is crashed).
  bool alive() const { return alive_; }
  void kill() { alive_ = false; }
  void revive() { alive_ = true; }

  /// The recovery incarnation stamped on sends and re-sends.
  std::uint32_t epoch() const { return epoch_; }
  void set_epoch(std::uint32_t e) { epoch_ = e; }
  /// Drop application messages below these epochs at consumption: a
  /// hardware rollback fences everything, a software recovery fences only
  /// dirty-flagged messages (exactly the sends undone by contaminated
  /// processes).
  void fence_all_below(std::uint32_t epoch);
  void fence_dirty_below(std::uint32_t epoch);

  // ---- Software recovery (mdcd/recovery.hpp) ------------------------------

  /// Guarded operation ends: the low-confidence versions were terminated
  /// and their shadows take over.
  virtual void end_guarded_operation() = 0;
  /// A shadow assumes the active role and replays its suppressed log
  /// beyond the validated watermark; returns the number replayed. Every
  /// other process has nothing to take over.
  virtual std::size_t takeover() { return 0; }

  // ---- Checkpointing -----------------------------------------------------

  /// Build a checkpoint record of the *current* instant: application
  /// snapshot, protocol state, transport dedup state, unacked log, and a
  /// reference to the view history at its current mark.
  CheckpointRecord make_record(CkptKind kind) const;

  /// Restore process state from a checkpoint record (software rollback or
  /// hardware recovery). Clears deferred acks, held operations and
  /// blocking. The process continues in a copy of the record's view
  /// history up to its mark (copy-on-restore); a record without one
  /// starts an empty history.
  void restore_from_record(const CheckpointRecord& record);

  /// The protocol blob of the live state, views at the current mark.
  Bytes snapshot_protocol_state() const;
  /// Restore a blob this process produced since its last restore: its view
  /// mark is read against the current history.
  void restore_protocol_state(const Bytes& state);

  // ---- Oracle / diagnostics surface ---------------------------------------

  /// Live views (current validity).
  const ViewLog& sent_views() const { return views_->sent(); }
  const ViewLog& recv_views() const { return views_->recv(); }
  MsgSeq msg_sn() const { return msg_sn_; }
  /// Operations deferred by blocking periods so far (overhead metric).
  std::uint64_t deferred_ops() const { return deferred_ops_; }

  /// Protocol-blob encode counters (every snapshot_protocol_state()),
  /// reported beside the app and transport ones: misses counts encodes and
  /// hits is always 0. The names are the ones the perfbench harness reads.
  std::uint64_t protocol_cache_hits() const { return 0; }
  std::uint64_t protocol_cache_misses() const { return protocol_encodes_; }
  std::uint64_t protocol_bytes_encoded() const {
    return protocol_bytes_encoded_;
  }

 protected:
  /// `acks_at_consumption`: acknowledge every consumption at once even
  /// under watermark tracking (the original P1act, whose contamination
  /// flag is constant and would defer forever).
  CheckpointableProcess(const MdcdConfig& config, ProcessServices services,
                        bool acks_at_consumption = false);

  // Engine hooks, invoked outside blocking (or when a blocking period
  // drains). Passed-AT notifications reach do_passed_at after dedup and
  // their immediate ack; application messages reach do_app_message before
  // being marked consumed and settled.
  virtual void do_app_send(bool external, std::uint64_t input) = 0;
  virtual void do_app_message(const Message& m) = 0;
  virtual void do_passed_at(const Message& m) = 0;

  /// Encode the live protocol state with its views at `views`.
  virtual Bytes encode_protocol_state(const ViewMark& views) const = 0;
  /// Decode a blob into the live state; returns the blob's view mark.
  virtual ViewMark decode_protocol_state(const Bytes& state) = 0;

  /// An engine-specific operation a blocking period holds in arrival order
  /// with the rest: `run(process, input)` when the period ends.
  struct LocalOp {
    void (*run)(CheckpointableProcess& process, std::uint64_t input);
    std::uint64_t input;
  };
  /// Hold `op` until the blocking period ends (callers check in_blocking).
  void hold(LocalOp op);

  /// True iff the passed-AT notification passes the Ndc gate (modified
  /// variant: piggybacked Ndc must equal the local Ndc; original variant:
  /// always true).
  bool ndc_gate_ok(const Message& m);

  /// The contamination flag just fell 1 -> 0: the current state, which
  /// anchors every deferred consumption, is now the recovery content. Send
  /// the deferred acks, then fire the observer.
  void contamination_cleared();

  /// Detail is a view: no std::string is materialized unless tracing is
  /// actually enabled (campaigns run with it off; this is per-message hot).
  void trace(TraceKind kind, std::string_view detail = {}, std::uint64_t a = 0,
             std::uint64_t b = 0) const;
  bool tracing() const { return services_.trace != nullptr; }
  StableSeq ndc() const { return ndc_provider_(); }

  MdcdConfig config_;
  ProcessServices services_;
  MsgSeq msg_sn_ = 0;
  bool alive_ = true;
  std::uint32_t epoch_ = 0;
  /// The ghost log: shared by handle with every record established from
  /// it, replaced by a copy on restore.
  std::shared_ptr<ViewHistory> views_ = std::make_shared<ViewHistory>();

 private:
  struct SendReq {
    bool external;
    std::uint64_t input;
  };
  using Deferred = std::variant<SendReq, LocalOp, Message>;
  struct AckKey {
    ProcessId sender;
    std::uint64_t transport_seq;
  };

  void defer(Deferred op);
  void process_passed_at(const Message& m);
  void process_app_message(const Message& m);
  /// Dedup + ack + epoch fence. Returns true iff the message should be
  /// processed.
  bool consume_or_drop(const Message& m);
  /// Validation-gated acknowledgment: ack `m` now if the current state is
  /// a valid recovery anchor (contamination flag clear), else defer until
  /// the flag clears. Paper tracking mode acks immediately (Neves-Fuchs
  /// transport semantics).
  void settle_ack(const Message& m);
  void flush_deferred_acks();
  /// Restore a protocol blob whose view mark indexes `views` (none: start
  /// an empty history).
  void restore_protocol_state(const Bytes& state, const ViewHistory* views);

  bool acks_gated_;
  bool blocking_ = false;
  SmallVec<Deferred, 4> deferred_;
  SmallVec<AckKey, 8> deferred_acks_;
  std::uint32_t fence_all_ = 0;
  std::uint32_t fence_dirty_ = 0;
  std::function<StableSeq()> ndc_provider_ = [] { return StableSeq{0}; };
  std::function<void()> contamination_cleared_;
  std::function<void(const CheckpointRecord&)> record_observer_;
  std::uint64_t deferred_ops_ = 0;
  mutable std::uint64_t protocol_encodes_ = 0;
  mutable std::uint64_t protocol_bytes_encoded_ = 0;
};

}  // namespace synergy
