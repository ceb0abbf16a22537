#include "core/experiment.hpp"

#include "analysis/checkers.hpp"
#include "common/assert.hpp"

namespace synergy {

RollbackMeasurement measure_rollback(const RollbackExperimentConfig& config) {
  SYNERGY_EXPECTS(config.fault_latest > config.fault_earliest);
  SYNERGY_EXPECTS(config.horizon > config.fault_latest);
  RollbackMeasurement result;
  Rng meta(config.seed0);

  for (std::size_t rep = 0; rep < config.replications; ++rep) {
    SystemConfig sc = config.base;
    sc.seed = config.seed0 + rep * 7919 + 1;
    sc.enable_trace = false;  // traces are per-scenario tools, not sweeps

    System system(sc);
    const TimePoint fault_at =
        TimePoint::origin() +
        meta.uniform(config.fault_earliest, config.fault_latest);
    const NodeId victim{
        static_cast<std::uint32_t>(meta.uniform_int(0, 2))};

    system.start(TimePoint::origin() + config.horizon);
    system.schedule_hw_fault(fault_at, victim);
    system.run();

    for (const auto& rec : system.hw_recoveries()) {
      ++result.faults;
      for (std::size_t i = 0; i < rec.rollback_distance.size(); ++i) {
        const double d = rec.rollback_distance[i].to_seconds();
        result.overall.add(d);
        if (rec.restored_dirty[i]) ++result.dirty_restores;
      }
    }

    if (config.check_oracles && !system.hw_recoveries().empty()) {
      const GlobalState state = system.stable_line_state();
      result.consistency_violations += check_consistency(state).size();
      result.recoverability_violations += check_recoverability(state).size();
    }
  }
  return result;
}

}  // namespace synergy
