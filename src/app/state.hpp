// Synthetic application state machine.
//
// Substitution note (DESIGN.md §3): the paper's application is onboard
// spacecraft software; MDCD is agnostic to application semantics — only
// message events, rates, and AT outcomes matter. This state machine gives
// the protocols something real to checkpoint and roll back: a deterministic
// register file evolved by inputs, with ground-truth *taint* tracking so
// test oracles can tell whether an erroneous value actually propagated.
//
// Taint is the fault-injection ground truth (did a software error touch
// this state), distinct from the protocols' *potential contamination*
// (dirty bits), which is a conservative overapproximation the protocols
// maintain without ever reading taint.
//
// Two workload variants share this class:
//   - kRegisters: the original 8-register file (encoding unchanged);
//   - kAbft: a checksum-encoded matrix block (Bosilca-style ABFT). The
//     state is a 4x4 block of u64 cells plus per-row and per-column sums
//     (mod 2^64) that every legitimate update maintains incrementally.
//     abft_check_ok() recomputes the sums from the block — that check IS
//     the acceptance test for ABFT workloads, so detection coverage is
//     *computed* from the state instead of assumed: a raw bit flip breaks
//     a row+column pair and is caught; a checksum-consistent wrong update
//     (design fault, or taint arriving through a correctly-applied
//     message) is the encoding's honest blind spot and passes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "common/serialize.hpp"

namespace synergy {

/// Which application-state variant a mission runs.
enum class WorkloadKind : std::uint8_t {
  kRegisters,  ///< 8-register file; AT verdicts drawn from assumed coverage.
  kAbft,       ///< Checksum-encoded matrix block; AT verdict computed.
};

inline constexpr WorkloadKind kAllWorkloadKinds[] = {
    WorkloadKind::kRegisters,
    WorkloadKind::kAbft,
};

constexpr const char* to_string(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kRegisters: return "registers";
    case WorkloadKind::kAbft: return "abft";
  }
  return "";  // unreachable: all enumerators handled above
}

/// Parse a workload name as printed by to_string. Returns nullopt for
/// unknown names — the CLI must reject stale spellings loudly.
inline std::optional<WorkloadKind> workload_kind_from_string(
    std::string_view name) {
  for (WorkloadKind k : kAllWorkloadKinds) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

class ApplicationState {
 public:
  ApplicationState() = default;
  explicit ApplicationState(std::uint64_t seed,
                            WorkloadKind mode = WorkloadKind::kRegisters);

  /// Consume a message payload. If the payload is tainted, the state
  /// becomes tainted (erroneous input contaminates state; paper §2.1's key
  /// assumption).
  void apply_message(std::uint64_t payload, bool payload_tainted);

  /// One unit of local computation driven by an input word.
  void local_step(std::uint64_t input);

  /// Deterministic output derived from the current state: the payload of
  /// the next outgoing message. An erroneous state yields tainted outputs
  /// (the other half of the paper's key assumption).
  std::uint64_t output() const;

  /// Inject a design-fault manifestation: corrupts a register and taints.
  void corrupt(std::uint64_t noise);

  /// Inject a hardware-fault manifestation (COAST's register/memory model):
  /// flip exactly one bit of one register. Taints — ground truth says this
  /// state is now erroneous, whether or not any protocol notices.
  void flip_bit(std::uint64_t noise);

  /// Allocation-free deep equality on protocol-visible content (registers
  /// or block+checksums, step count, taint). Ignores the encode counters —
  /// two lanes that replayed the same history compare equal even if only
  /// one was ever snapshotted.
  bool equals(const ApplicationState& other) const {
    if (mode_ != other.mode_ || steps_ != other.steps_ ||
        tainted_ != other.tainted_) {
      return false;
    }
    return mode_ == WorkloadKind::kAbft
               ? block_ == other.block_ && row_sum_ == other.row_sum_ &&
                     col_sum_ == other.col_sum_
               : regs_ == other.regs_;
  }

  WorkloadKind mode() const { return mode_; }

  /// ABFT self-check: recompute the row/column sums from the block and
  /// compare against the stored checksums. Always true in registers mode
  /// (nothing to compute a verdict from).
  bool abft_check_ok() const;

  bool tainted() const { return tainted_; }
  std::uint64_t steps() const { return steps_; }

  /// Encode the state. Every call is counted below: checkpoint captures
  /// and the TMR lanes' state copies.
  Bytes snapshot() const;
  void restore(const Bytes& snapshot);

  /// Order-insensitive equality check helper for tests.
  std::uint64_t fingerprint() const;

  /// Encode counters for the mission report's ckpt_* rows: misses counts
  /// encodes and hits is always 0, since no encode is ever skipped. The
  /// names are the ones the perfbench harness reads.
  std::uint64_t snapshot_cache_hits() const { return 0; }
  std::uint64_t snapshot_cache_misses() const { return encodes_; }
  std::uint64_t snapshot_bytes_encoded() const { return bytes_encoded_; }

 private:
  static constexpr std::size_t kEncodedSize = 8 * 8 + 8 + 1;
  static constexpr std::size_t kBlockDim = 4;
  static constexpr std::size_t kBlockCells = kBlockDim * kBlockDim;
  static constexpr std::size_t kAbftEncodedSize =
      (kBlockCells + 2 * kBlockDim) * 8 + 8 + 1;

  /// Apply a legitimate (checksum-maintaining) delta to one block cell.
  void abft_update(std::size_t cell, std::uint64_t delta) {
    block_[cell] += delta;
    row_sum_[cell / kBlockDim] += delta;
    col_sum_[cell % kBlockDim] += delta;
  }

  WorkloadKind mode_ = WorkloadKind::kRegisters;
  std::array<std::uint64_t, 8> regs_{};
  // ABFT block state (kAbft mode only; zero and untouched otherwise).
  std::array<std::uint64_t, kBlockCells> block_{};
  std::array<std::uint64_t, kBlockDim> row_sum_{};
  std::array<std::uint64_t, kBlockDim> col_sum_{};
  std::uint64_t steps_ = 0;
  bool tainted_ = false;
  mutable std::uint64_t encodes_ = 0;
  mutable std::uint64_t bytes_encoded_ = 0;
};

}  // namespace synergy
