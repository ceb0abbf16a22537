// MDCD protocol configuration.
#pragma once

namespace synergy {

/// Which MDCD algorithm set a process runs.
enum class MdcdVariant {
  /// The original protocol (paper §2.1, Figure 1): Type-1 and Type-2
  /// volatile checkpoints; P1act exempt from checkpointing; no Ndc
  /// awareness (passed-AT notifications are never gated).
  kOriginal,
  /// The modified protocol (paper §3, Appendix A, Figure 3): P1act
  /// maintains pseudo_dirty_bit and pseudo checkpoints; Type-2
  /// checkpoints are eliminated; passed-AT handling is gated on the
  /// piggybacked stable-checkpoint sequence number Ndc and is processed
  /// even during TB blocking periods.
  kModified,
};

inline const char* to_string(MdcdVariant v) {
  return v == MdcdVariant::kOriginal ? "original" : "modified";
}

/// How the modified protocol gates passed-AT notifications on the
/// piggybacked stable-checkpoint sequence number.
enum class NdcGateMode {
  /// Paper-faithful (Appendix A): accept iff m.Ndc == local Ndc.
  kPaper,
  /// Library extension: while a *contaminated* process is inside its
  /// blocking period its local Ndc has already been incremented for the
  /// in-progress checkpoint, but a peer that has not yet reached its own
  /// timer expiry still piggybacks the previous value. The validation it
  /// reports WILL be reflected in that peer's equally-numbered checkpoint,
  /// so the correct acceptance test there is m.Ndc == local Ndc - 1. The
  /// paper's equality gate rejects these and can strand a valid message
  /// outside the recovery line (see DESIGN.md and the gate ablation bench).
  kBlockingAware,
};

inline const char* to_string(NdcGateMode m) {
  return m == NdcGateMode::kPaper ? "paper" : "blocking_aware";
}

/// How contamination knowledge propagates with messages.
enum class ContaminationTracking {
  /// Paper-faithful (Appendix A): the piggybacked dirty bit is taken at
  /// face value, and every accepted validation event clears the dirty bit
  /// and upgrades all suspect views unconditionally. This admits two
  /// races our property sweeps expose (see DESIGN.md): a message sent
  /// just before its sender processed a validation re-dirties its
  /// receiver on a stale flag (splitting the recovery line), and a stale
  /// in-flight validation can clear contamination it does not cover.
  kPaperDirtyBit,
  /// Library correction: messages carry a contamination watermark (the
  /// highest component-1 SN the sender's contamination depends on) and
  /// validations carry the SN they cover. Receivers ignore dirty flags
  /// whose watermark they already know to be validated, clear dirty bits
  /// only when the validation covers the current contamination, and
  /// upgrade only the views the validation covers.
  kWatermark,
};

inline const char* to_string(ContaminationTracking t) {
  return t == ContaminationTracking::kPaperDirtyBit ? "paper_dirty_bit"
                                                    : "watermark";
}

struct MdcdConfig {
  MdcdVariant variant = MdcdVariant::kModified;
  NdcGateMode gate_mode = NdcGateMode::kBlockingAware;
  ContaminationTracking tracking = ContaminationTracking::kWatermark;
};

}  // namespace synergy
