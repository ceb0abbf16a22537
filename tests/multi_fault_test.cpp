// Fault sequences: repeated hardware faults, faults on every node, faults
// interleaved with software recovery, fault plans, and cross-scheme
// recovery behaviour over long horizons.
#include <gtest/gtest.h>

#include "analysis/checkers.hpp"
#include "core/system.hpp"
#include "inject/fault_schedule.hpp"

namespace synergy {
namespace {

SystemConfig long_config(Scheme scheme, std::uint64_t seed) {
  SystemConfig c;
  c.scheme = scheme;
  c.seed = seed;
  c.workload.p1_internal_rate = 1.0;
  c.workload.p1_external_rate = 0.2;
  c.workload.p2_internal_rate = 1.0;
  c.workload.p2_external_rate = 0.2;
  c.workload.step_rate = 1.0;
  c.tb.interval = Duration::seconds(10);
  c.repair_latency = Duration::seconds(2);
  return c;
}

TEST(MultiFaultTest, RepeatedFaultsAllRecover) {
  System system(long_config(Scheme::kCoordinated, 1));
  system.start(TimePoint::origin() + Duration::seconds(1'200));
  for (int k = 0; k < 5; ++k) {
    system.schedule_hw_fault(
        TimePoint::origin() + Duration::seconds(150 + 200 * k),
        NodeId{static_cast<std::uint32_t>(k % 3)});
  }
  system.run();
  ASSERT_EQ(system.hw_recoveries().size(), 5u);
  for (const auto& rec : system.hw_recoveries()) {
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_FALSE(rec.restored_dirty[i]);
      EXPECT_GE(rec.rollback_distance[i], Duration::zero());
    }
  }
  const GlobalState line = system.stable_line_state();
  EXPECT_TRUE(check_consistency(line).empty());
  EXPECT_TRUE(check_recoverability(line).empty());
}

TEST(MultiFaultTest, EveryNodeCanBeTheVictim) {
  for (std::uint32_t node = 0; node < 3; ++node) {
    System system(long_config(Scheme::kCoordinated, 10 + node));
    system.start(TimePoint::origin() + Duration::seconds(400));
    system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(200),
                             NodeId{node});
    system.run();
    ASSERT_EQ(system.hw_recoveries().size(), 1u) << "node " << node;
    EXPECT_EQ(system.hw_recoveries()[0].faulty_node, NodeId{node});
    // Traffic resumed after each recovery.
    bool resumed = false;
    for (const auto& e : system.device().entries) {
      resumed |= e.at > TimePoint::origin() + Duration::seconds(250);
    }
    EXPECT_TRUE(resumed) << "node " << node;
  }
}

TEST(MultiFaultTest, FaultDuringRepairOfAnotherIsSkipped) {
  SystemConfig c = long_config(Scheme::kCoordinated, 20);
  c.repair_latency = Duration::seconds(50);
  System system(c);
  system.start(TimePoint::origin() + Duration::seconds(600));
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(100),
                           NodeId{0});
  // Lands inside the first repair window: skipped by the single-fault
  // model rather than corrupting the recovery.
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(120),
                           NodeId{1});
  system.run();
  EXPECT_EQ(system.hw_recoveries().size(), 1u);
}

TEST(MultiFaultTest, PoissonFaultPlanThroughManager) {
  System system(long_config(Scheme::kCoordinated, 21));
  system.start(TimePoint::origin() + Duration::seconds(1'000));
  // Hardware-only rates: the default InjectorRates arm nothing else.
  InjectorRates rates;
  rates.timed.hw_fault_mean_gap = Duration::seconds(200);
  const FaultSchedule plan = FaultSchedule::generate(
      5, rates, TimePoint::origin(), Duration::seconds(900), 1e-5, 3);
  for (const FaultEvent& e : plan.events()) {
    ASSERT_EQ(e.kind, FaultEvent::Kind::kHwFault);
    system.schedule_hw_fault(e.at, NodeId{e.target});
  }
  system.run();
  EXPECT_EQ(system.hw_recoveries().size(),
            system.hw_manager().faults_injected());
  EXPECT_GT(plan.events().size(), 0u);
}

TEST(MultiFaultTest, SwThenHwThenContinueCleanly) {
  System system(long_config(Scheme::kCoordinated, 22));
  system.start(TimePoint::origin() + Duration::seconds(900));
  system.schedule_sw_error(TimePoint::origin() + Duration::seconds(100));
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(300),
                           NodeId{1});
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(600),
                           NodeId{2});
  system.run();
  ASSERT_TRUE(system.sw_recovery().has_value());
  ASSERT_EQ(system.hw_recoveries().size(), 2u);
  EXPECT_TRUE(system.p1sdw().active());
  EXPECT_TRUE(system.node(kP1Act).retired());
  for (const auto& p : system.live_state().processes) {
    EXPECT_FALSE(p.dirty);
    EXPECT_FALSE(p.app_tainted);
  }
}

TEST(MultiFaultTest, HwThenSwThenHw) {
  System system(long_config(Scheme::kCoordinated, 23));
  system.start(TimePoint::origin() + Duration::seconds(900));
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(100),
                           NodeId{0});
  system.schedule_sw_error(TimePoint::origin() + Duration::seconds(400));
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(700),
                           NodeId{2});
  system.run();
  ASSERT_TRUE(system.sw_recovery().has_value());
  ASSERT_EQ(system.hw_recoveries().size(), 2u);
  const GlobalState line = system.stable_line_state();
  EXPECT_EQ(line.processes.size(), 2u);  // P1act retired
  EXPECT_TRUE(check_consistency(line).empty());
  EXPECT_TRUE(check_recoverability(line).empty());
}

TEST(MultiFaultTest, WriteThroughSurvivesRepeatedFaults) {
  System system(long_config(Scheme::kWriteThrough, 24));
  system.start(TimePoint::origin() + Duration::seconds(900));
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(300),
                           NodeId{2});
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(600),
                           NodeId{1});
  system.run();
  ASSERT_EQ(system.hw_recoveries().size(), 2u);
  // Write-through restores validated (Type-2) states: never contaminated.
  for (const auto& rec : system.hw_recoveries()) {
    EXPECT_FALSE(rec.restored_dirty[1]);
    EXPECT_FALSE(rec.restored_dirty[2]);
  }
}

TEST(MultiFaultTest, BackToBackFaultsOnSameNode) {
  System system(long_config(Scheme::kCoordinated, 25));
  system.start(TimePoint::origin() + Duration::seconds(700));
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(200),
                           NodeId{2});
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(230),
                           NodeId{2});
  system.run();
  ASSERT_EQ(system.hw_recoveries().size(), 2u);
  // The second recovery rolls back to a line refreshed after the first.
  EXPECT_GE(system.hw_recoveries()[1].fault_time,
            system.hw_recoveries()[0].fault_time);
  const GlobalState line = system.stable_line_state();
  EXPECT_TRUE(check_consistency(line).empty());
}

}  // namespace
}  // namespace synergy
