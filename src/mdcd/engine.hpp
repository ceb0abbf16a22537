// MDCD protocol engine — the canonical three roles' contamination model.
//
// One engine instance embodies one process's error-containment algorithm
// (paper Appendix A gives the per-role algorithms; P1ActEngine, P1SdwEngine
// and P2Engine implement them on top of this class). The base owns
// delivery, fencing, blocking, validation-gated acks and record capture
// (mdcd/checkpointable.hpp, DESIGN.md §23); this class adds:
//
//   - the dirty bit and Type-1 checkpoint placement (immediately before
//     contamination), the component-1 validation watermark and the views'
//     validity upgrades (the oracles' ground for the paper's
//     consistency/recoverability properties);
//   - local steps and confidence-loss events, held by blocking periods
//     like sends;
//   - the redundant-lane fan-out and send-boundary votes;
//   - volatile checkpoint establishment and the role-state blob.
#pragma once

#include <cstdint>
#include <functional>

#include "mdcd/checkpointable.hpp"

namespace synergy {

class MdcdEngine : public CheckpointableProcess {
 public:
  MdcdEngine(Role role, const MdcdConfig& config, ProcessServices services);

  Role role() const { return role_; }

  // ---- Workload events -------------------------------------------------

  /// One local computation step. Deferred during blocking.
  void on_local_step(std::uint64_t input);

  /// Redundant-execution coverage was lost (CFCSS signature mismatch):
  /// treat it like a failed AT feeding the dirty-bit machinery — anchor a
  /// Type-1 checkpoint and mark the state suspect until the next covering
  /// validation. Deferred during blocking (only passed-AT notifications
  /// may be processed then); the event is queued, never dropped.
  void on_confidence_loss();

  // ---- Coordination surface ----------------------------------------------

  bool dirty() const { return dirty_; }

  /// The dirty bit, except for P1act under the modified protocol, where it
  /// is pseudo_dirty_bit (paper footnote 2).
  bool contamination_flag() const override { return dirty_; }

  /// Observer fired on every local validation event (own AT pass or an
  /// accepted passed-AT notification). The write-through baseline hangs
  /// its stable Type-2 writes off this.
  void set_validation_observer(std::function<void()> fn);

  /// Guarded operation: the low-confidence version is in service. When
  /// guarded mode ends (successful upgrade or takeover), dirty bits stay 0
  /// and MDCD "goes on leave" (paper §4.2).
  bool guarded() const { return guarded_; }
  virtual void set_guarded(bool guarded) { guarded_ = guarded; }

  // ---- Checkpointing -----------------------------------------------------

  /// Establish a volatile checkpoint of the current state.
  void establish_volatile_checkpoint(CkptKind kind);

  std::uint64_t volatile_checkpoints() const { return vckpts_; }

 protected:
  virtual void serialize_role_state(ByteWriter& w) const;
  virtual void deserialize_role_state(ByteReader& r);

  /// How this role marks its state suspect on a confidence-loss event.
  /// Base: set the dirty bit. P1act (modified) overrides — its dirty bit
  /// is constant 1; received-contamination carries the suspicion instead.
  virtual void note_confidence_loss();

  // Shared helpers for role implementations.

  /// Application mutations route through the lane fan-out when redundant
  /// lanes are configured, so every replica replays the same history.
  void app_apply_message(std::uint64_t payload, bool payload_tainted);
  void app_local_step(std::uint64_t input);
  void app_corrupt(std::uint64_t noise);

  /// Vote the lanes at a send boundary. Returns false when the voter found
  /// an unmaskable divergence: the rollback handler has fired and the
  /// caller must abort the send (never forward a suspect message).
  /// Schemes without lanes trivially agree.
  bool vote_lanes();

  /// Is this message to be treated as potentially contaminating? Paper
  /// mode: the piggybacked dirty bit verbatim. Watermark mode: a dirty
  /// flag whose contamination watermark is already validated is stale and
  /// ignored.
  bool effectively_dirty(const Message& m);

  void mark_dirty();
  void clear_dirty();

  /// Record that contamination up to component-1 SN `watermark` has been
  /// validated: raises validated_w_ and upgrades the covered views (all
  /// views in paper mode).
  void note_validation(MsgSeq watermark);

  /// Does a validation covering `watermark` clear the *current* dirt?
  /// (Always true in paper mode, matching Appendix A's unconditional
  /// reset.)
  bool validation_covers_dirt(MsgSeq watermark) const;

  /// Track the watermark of newly consumed contamination.
  void absorb_contamination(const Message& m);

  /// Compose an outgoing message stamped with epoch/Ndc.
  Message base_message(MsgKind kind, ProcessId to, std::uint64_t payload,
                       bool tainted) const;

  /// Send + record the sent view (suspect per `suspect`; the view's
  /// contamination watermark is taken from m.contam_sn).
  void send_recorded(Message m, bool suspect);

  void record_recv(const Message& m, bool suspect);

  void notify_validation();

  Role role_;

  bool dirty_ = false;
  bool guarded_ = true;
  /// Highest component-1 SN known validated (watermark tracking).
  MsgSeq validated_w_ = 0;
  /// Highest contamination watermark absorbed since last clean.
  MsgSeq dirty_contam_ = 0;

 private:
  /// The protocol blob: scalars, the view mark, and role state.
  Bytes encode_protocol_state(const ViewMark& views) const override;
  ViewMark decode_protocol_state(const Bytes& state) override;
  void process_confidence_loss();

  std::function<void()> validation_observer_;
  std::uint64_t vckpts_ = 0;
};

}  // namespace synergy
