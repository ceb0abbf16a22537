// Experiment harness: replicated Monte-Carlo measurements over System runs.
//
// Drives the Figure 7 reproduction and the ablation benches: for each
// replication a fresh System is built from a derived seed, a hardware
// fault is injected at a uniformly random instant on a uniformly random
// node, and the per-process rollback distances (and oracle violations,
// when history recording is on) are accumulated.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "core/system.hpp"

namespace synergy {

struct RollbackExperimentConfig {
  SystemConfig base;
  Duration horizon = Duration::seconds(100'000);
  Duration fault_earliest = Duration::seconds(20'000);
  Duration fault_latest = Duration::seconds(90'000);
  std::size_t replications = 30;
  std::uint64_t seed0 = 42;
  /// Run the consistency/recoverability oracles on the live state after
  /// each recovery.
  bool check_oracles = false;
};

struct RollbackMeasurement {
  Moments overall;  ///< rollback distance in seconds, all processes
  std::uint64_t faults = 0;
  std::uint64_t consistency_violations = 0;
  std::uint64_t recoverability_violations = 0;
  std::uint64_t dirty_restores = 0;
};

RollbackMeasurement measure_rollback(const RollbackExperimentConfig& config);

}  // namespace synergy
