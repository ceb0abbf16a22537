// Generalized MDCD engine — N components, per-source contamination.
//
// One engine instance per process. Three kinds:
//   kActive  — the in-service process of a low-confidence component: its
//              own sends are a contamination source (tracked per-source);
//              external sends are always AT-validated; a pseudo checkpoint
//              anchors each burst of unvalidated sends.
//   kShadow  — the high-confidence twin of a low component: mirrors the
//              computation, suppresses and logs outputs, reclaims the log
//              as validations cover its component's SNs, and takes over on
//              software error recovery.
//   kRegular — a high-confidence component: contaminated only by what it
//              absorbs; AT on external sends while contaminated.
//
// The engine carries the corrected semantics of the canonical protocol
// (DESIGN.md §7) generalized to contamination *vectors*: messages and
// validations carry per-source watermark maps, dirt clears per-source,
// views upgrade when their whole vector is covered, and acknowledgments
// are validation-gated. Derives from CheckpointableProcess, which owns
// delivery, fencing, blocking, the acks and record capture (DESIGN.md
// §23), so the adapted TB engine coordinates it unchanged; this class
// keeps only the vector contamination model, the anchor ring and the
// shadow log.
//
// Hot-path layout (DESIGN.md §17): every per-step container is inline
// small-vector storage — contamination vectors, the deferred queue, the
// fail-over set. The anchor ring is a deque that drops dominated
// candidates from its front, and anchor candidates are *lazy*: a capture
// records scalars, a ViewMark, a transport mark and the app snapshot; the
// transport and protocol state encode once, at promotion, instead of on
// every absorption. The oracles' message views live in the shared
// ViewHistory (DESIGN.md §19), never in the protocol blob.
#pragma once

#include <deque>
#include <optional>

#include "common/small_vec.hpp"
#include "general/topology.hpp"
#include "mdcd/checkpointable.hpp"
#include "mdcd/contam.hpp"

namespace synergy {

enum class GProcessKind : std::uint8_t { kActive, kShadow, kRegular };

/// The general engine's protocol blob, decoded. The engine writes it in
/// one place (GeneralEngine::write_protocol_state) and restore reads it
/// through decode(), so the layout is spelled out once each way: msg_sn
/// u64, takeover u8, dirty u8, the absorbed and validated vectors, the
/// shadow suppression log (u32 count, messages), the ViewMark of the
/// record's views and the failed-over components (u32 count, u32 each).
struct GeneralProtocolState {
  MsgSeq msg_sn = 0;
  bool takeover_done = false;
  bool dirty = false;
  ContamVector absorbed;
  ContamVector validated;
  SmallVec<Message, 4> msg_log;
  ViewMark views;
  SmallVec<std::uint32_t, 8> failed_over;

  static GeneralProtocolState decode(const Bytes& blob);
};

class GeneralEngine final : public CheckpointableProcess {
 public:
  GeneralEngine(const Topology& topology, ProcessId self,
                const MdcdConfig& config, ProcessServices services);

  GProcessKind kind() const { return kind_; }
  std::uint32_t component() const { return component_; }

  // ---- CheckpointableProcess ----------------------------------------------
  bool contamination_flag() const override;
  const std::optional<CheckpointRecord>& latest_volatile() const override {
    materialize_anchor();
    return services_.vstore->latest();
  }

  // ---- Coordination / recovery surface -------------------------------------
  bool dirty() const;          ///< uncovered absorbed contamination exists
  bool pseudo_dirty() const;   ///< (active) uncovered own sends exist
  bool active_role() const { return takeover_done_ || kind_ != GProcessKind::kShadow; }

  /// Shadow takeover: assume the active role and replay logged messages
  /// beyond the validated watermark of this component. Returns the number
  /// replayed (0 for a non-shadow, which has nothing to take over).
  std::size_t takeover() override;

  /// Every low-confidence component failed over to its shadow (system-wide
  /// reconfiguration knowledge, kept in the protocol state).
  void end_guarded_operation() override;

  // ---- Oracle / diagnostics -------------------------------------------------
  const ContamVector& absorbed() const { return absorbed_; }
  const ContamVector& validated() const { return validated_; }
  const SmallVec<Message, 4>& suppressed_log() const { return msg_log_; }
  bool app_tainted() const { return services_.app->tainted(); }
  /// Anchor-ring occupancy (bounded by kMaxAnchorCandidates; tested).
  std::size_t anchor_candidate_count() const {
    return anchor_candidates_.size();
  }

  static constexpr std::size_t kMaxAnchorCandidates = 64;

 private:
  void do_app_send(bool external, std::uint64_t input) override;
  void do_app_message(const Message& m) override;
  void do_passed_at(const Message& m) override;
  Bytes encode_protocol_state(const ViewMark& views) const override;
  /// Also drops the anchor ring: a restored blob supersedes every
  /// candidate captured before it, and the promotion stamp with them.
  ViewMark decode_protocol_state(const Bytes& state) override;

  /// Current outgoing contamination: absorbed dirt plus (active) the own
  /// source watermark.
  ContamVector outgoing_contam(MsgSeq own_sn) const;

  /// Apply a validation covering `coverage`: raise validated_, clear
  /// covered dirt/pseudo, upgrade views, flush acks on full clear.
  void apply_validation(const ContamVector& coverage);

  // ---- Anchor ring ---------------------------------------------------------
  // With several contamination sources a validation can cover a *prefix*
  // of a process's dirt; the correct recovery anchor is then the state
  // just before the first still-uncovered absorption — which no single
  // Type-1 checkpoint provides. The engine therefore captures a candidate
  // anchor before every absorption (and before every own-source send of
  // an active) and, on each validation, promotes the newest candidate
  // whose captured dependency vector is fully covered. The promoted
  // record is what latest_volatile() / the TB copy path sees.
  //
  // A candidate does NOT hold a serialized record. The view history is
  // append-only between restores and validations are monotone, so a
  // candidate is fully determined by scalars, the capture-time absorbed
  // vector, its ViewMark, a transport mark and the app snapshot: the
  // promoted record reads the views at the capture-time prefixes, settled
  // under *today's* validation knowledge — identical to normalizing a
  // frozen snapshot, because suspect == initial_suspect &&
  // !covered(contam, validated_now) regardless of when the flag was
  // frozen — and encodes the transport state as it stood at the mark.
  struct AnchorCandidate {
    ContamVector absorbed_at;  ///< dependencies of the captured state
    ContamVector absorbed;     ///< absorbed_ at capture (record contents)
    CkptKind kind;
    TimePoint captured_at;
    StableSeq ndc;
    MsgSeq msg_sn;
    bool takeover_done;
    std::uint64_t serial;          ///< promotion identity (skip re-serializing)
    ViewMark views;                ///< the view history at capture
    std::uint64_t transport_mark;  ///< Transport::mark() at capture
    SharedBytes app_state;
    SmallVec<Message, 4> unacked;
  };
  void capture_anchor(CkptKind kind);
  /// Erase candidates [first, last) and release their transport marks.
  void drop_candidates(std::size_t first, std::size_t last);
  void refresh_best_anchor();
  void materialize_anchor() const;
  CheckpointRecord build_promoted_record(const AnchorCandidate& cand) const;
  /// The one writer of the protocol blob: the live state, or the promoted
  /// anchor `promoted` stands for, with its views at `views`.
  Bytes write_protocol_state(const AnchorCandidate* promoted,
                             const ViewMark& views) const;

  void send_internal_multicast(std::uint64_t payload, bool tainted);

  /// Component `c` failed over to its shadow: its retired active process
  /// gets no further traffic. Persisted in the protocol state (survives
  /// rollbacks).
  void mark_component_failed_over(std::uint32_t c);

  const Topology& topology_;
  GProcessKind kind_;
  std::uint32_t component_;

  bool dirty_bit_ = false;
  ContamVector absorbed_;
  ContamVector validated_;
  bool takeover_done_ = false;
  std::deque<AnchorCandidate> anchor_candidates_;  // dropped from the front
  SmallVec<Message, 4> msg_log_;  // shadow suppression log
  SmallVec<std::uint32_t, 8> failed_over_;  // sorted component indices
  // Promotion is lazy twice over: refresh_best_anchor() only reorders the
  // ring (the newest covered candidate settles at the front), and the
  // promoted record itself serializes when latest_volatile() is *read* —
  // the TB copy path and recovery, not every validation. The stamps
  // record which (candidate, validation-knowledge) pair the vstore record
  // was built from, so repeated reads cost nothing.
  std::uint64_t candidate_serial_ = 0;
  std::uint64_t validated_version_ = 0;
  mutable std::uint64_t promoted_serial_ = ~std::uint64_t{0};
  mutable std::uint64_t promoted_validated_version_ = ~std::uint64_t{0};
};

}  // namespace synergy
