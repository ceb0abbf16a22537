#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace synergy {
namespace {

RollbackExperimentConfig tiny_config(Scheme scheme) {
  RollbackExperimentConfig config;
  config.base.scheme = scheme;
  config.base.workload.p1_internal_rate = 0.01;
  config.base.workload.p2_internal_rate = 0.01;
  config.base.workload.p1_external_rate = 0.0;
  config.base.workload.p2_external_rate = 0.05;
  config.base.workload.step_rate = 0.0;
  config.base.tb.interval = Duration::seconds(30);
  config.horizon = Duration::seconds(4'000);
  config.fault_earliest = Duration::seconds(1'000);
  config.fault_latest = Duration::seconds(3'500);
  config.replications = 6;
  config.seed0 = 321;
  return config;
}

TEST(ExperimentTest, EveryReplicationProducesOneFault) {
  const auto result = measure_rollback(tiny_config(Scheme::kCoordinated));
  EXPECT_EQ(result.faults, 6u);
  EXPECT_EQ(result.overall.n, 18u);  // 3 processes per fault
}

TEST(ExperimentTest, DeterministicForFixedSeed) {
  const auto a = measure_rollback(tiny_config(Scheme::kCoordinated));
  const auto b = measure_rollback(tiny_config(Scheme::kCoordinated));
  EXPECT_EQ(a.overall.mean, b.overall.mean);
  EXPECT_EQ(a.overall.max, b.overall.max);
}

TEST(ExperimentTest, CoordinatedBeatsWriteThroughInRareContaminationRegime) {
  auto co = tiny_config(Scheme::kCoordinated);
  auto wt = tiny_config(Scheme::kWriteThrough);
  co.replications = wt.replications = 10;
  const auto rco = measure_rollback(co);
  const auto rwt = measure_rollback(wt);
  EXPECT_LT(rco.overall.mean, rwt.overall.mean);
}

TEST(ExperimentTest, OraclesCleanWhenRequested) {
  auto config = tiny_config(Scheme::kCoordinated);
  config.check_oracles = true;
  const auto result = measure_rollback(config);
  EXPECT_EQ(result.consistency_violations, 0u);
  EXPECT_EQ(result.recoverability_violations, 0u);
  EXPECT_EQ(result.dirty_restores, 0u);
}

TEST(ExperimentTest, RollbackBoundedByHorizon) {
  const auto result = measure_rollback(tiny_config(Scheme::kCoordinated));
  EXPECT_GE(result.overall.min, 0.0);
  EXPECT_LE(result.overall.max, 4'000.0);
}

}  // namespace
}  // namespace synergy
