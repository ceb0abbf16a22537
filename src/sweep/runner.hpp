// The sweep executor: cells → missions → streaming aggregates.
//
// Cells run sequentially (their identity and seeds are position-free);
// inside a cell, missions fan out through run_ordered (core/pool.hpp) —
// the same executor the chaos campaign uses — with seeds derived
// up-front. Reports are folded strictly in mission-index order, so the
// accumulator sees the exact fold sequence of a sequential run whatever
// the worker count: streaming Welford is order-sensitive in its low bits,
// and the shard/merge byte-identity contract leaves no room for "close
// enough".
//
// Memory is O(cells) + O(out-of-order window), never O(missions): workers
// claim missions in index order, so only reports whose predecessors are
// still running wait to be folded (about one per worker), and each is
// dropped the moment it is folded.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "sweep/grid.hpp"
#include "sweep/stats.hpp"

namespace synergy::sweep {

/// Number of distribution samples each cell retains per metric. Small on
/// purpose: 10^5-mission sweeps must stay O(cells) resident.
inline constexpr std::size_t kReservoirCapacity = 64;

/// Summed per-cell mission outcomes (exact counts, trivially mergeable).
struct CellTallies {
  std::uint64_t missions = 0;
  std::uint64_t ok = 0;
  std::uint64_t oracle_violations = 0;
  std::uint64_t detections = 0;
  std::uint64_t degradations = 0;
  std::uint64_t hw_faults = 0;
  std::uint64_t sw_recoveries = 0;
  std::uint64_t injected_net = 0;
  std::uint64_t at_exposures = 0;
  std::uint64_t at_detected = 0;
  std::uint64_t at_missed = 0;
  std::uint64_t at_false_alarms = 0;
  std::uint64_t lane_injected = 0;
  std::uint64_t lane_masked = 0;
  std::uint64_t lane_detected = 0;
  std::uint64_t lane_silent = 0;

  void accumulate(const CellTallies& other);
};

/// Streaming aggregate of one cell's missions.
struct CellStats {
  SweepCell cell;
  CellTallies tallies;
  /// Per hardware-recovery rollback distance (seconds): the Figure-7 axis.
  Moments rollback;
  Reservoir rollback_samples{kReservoirCapacity};
  /// Per-mission total TB blocking time (seconds): the tau(b) axis.
  Moments blocking;
  Reservoir blocking_samples{kReservoirCapacity};

  CellStats() = default;
  explicit CellStats(const SweepCell& c) : cell(c) {}

  /// Fold mission `index`'s report. MUST be called in mission-index
  /// order (run_ordered guarantees it).
  void fold(std::size_t index, const MissionReport& report);

  double dependability() const;  ///< ok / missions (1 when empty).
  double coverage_computed() const;  ///< at_detected / at_exposures.

 private:
  std::uint64_t rollback_ordinal_ = 0;
};

/// One shard's worth of cells, in cell-index order.
struct ShardResult {
  SweepConfig config;
  std::size_t cells_total = 0;
  std::vector<CellStats> cells;
  std::uint64_t missions_run = 0;
  double wall_seconds = 0.0;  ///< Host clock; never serialized.
};

/// Run every cell this shard owns. Progress lines (one per cell) go to
/// `progress` when non-null; they carry host timing and are never part
/// of the deterministic JSON.
ShardResult run_sweep(const SweepConfig& config, std::ostream* progress);

}  // namespace synergy::sweep
