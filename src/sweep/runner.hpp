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
#include <string_view>
#include <vector>

#include "sweep/grid.hpp"
#include "sweep/stats.hpp"

namespace synergy::sweep {

/// Number of distribution samples each cell retains per metric. Small on
/// purpose: 10^5-mission sweeps must stay O(cells) resident.
inline constexpr std::size_t kReservoirCapacity = 64;

/// Where a cell tally sits in a fragment: on the outcome or the adversity
/// line of the cell object, or inside its `at` or `lanes` object.
enum class TallyLine { kOutcome, kAdversity, kAt, kLanes };

// Every per-cell tally, declared once as X(field, line, key) in wire
// order. The rows generate the CellTallies fields, their merge, their fold
// and their fragment JSON: a new tally is one row, plus its increment site
// in run_mission when it mirrors a MissionReport counter.
//  - The 11 rows named like a MissionReport counter sum that counter.
//  - The five outcome rows (missions, ok, oracle_violations, detections,
//    degradations) come from the mission's verdict and its monitor; fold
//    fills them by hand.
#define SYNERGY_CELL_TALLIES(X)                             \
  X(missions, kOutcome, "missions")                         \
  X(ok, kOutcome, "ok")                                     \
  X(oracle_violations, kOutcome, "oracle_violations")       \
  X(detections, kAdversity, "detections")                   \
  X(degradations, kAdversity, "degradations")               \
  X(hw_faults, kAdversity, "hw_faults")                     \
  X(sw_recoveries, kAdversity, "sw_recoveries")             \
  X(injected_net, kAdversity, "injected_net")               \
  X(at_exposures, kAt, "exposures")                         \
  X(at_detected, kAt, "detected")                           \
  X(at_missed, kAt, "missed")                               \
  X(at_false_alarms, kAt, "false_alarms")                   \
  X(lane_injected, kLanes, "injected")                      \
  X(lane_masked, kLanes, "masked")                          \
  X(lane_detected, kLanes, "detected")                      \
  X(lane_silent, kLanes, "silent")

/// Summed per-cell mission outcomes (exact counts, trivially mergeable).
struct CellTallies {
  SYNERGY_CELL_TALLIES(SYNERGY_DECLARE_COUNTER)

  void accumulate(const CellTallies& other);
};

/// The MissionReport counter named `name`; nullptr when there is none.
constexpr std::uint64_t MissionReport::*mission_counter(const char* name) {
  for (const MissionCounter& c : kMissionCounters) {
    if (std::string_view(c.name) == name) return c.field;
  }
  return nullptr;
}

struct CellTally {
  const char* key;  ///< JSON key inside its line or object.
  TallyLine line;
  std::uint64_t CellTallies::*field;
  /// The counter this tally sums; nullptr for the outcome rows.
  std::uint64_t MissionReport::*from;
};
#define SYNERGY_CELL_TALLY_ROW(field, line, key)          \
  CellTally{key, TallyLine::line, &CellTallies::field, \
            mission_counter(#field)},
inline constexpr CellTally kCellTallies[] = {
    SYNERGY_CELL_TALLIES(SYNERGY_CELL_TALLY_ROW)};
#undef SYNERGY_CELL_TALLY_ROW

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
