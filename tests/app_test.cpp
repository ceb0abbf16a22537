#include <gtest/gtest.h>

#include "app/acceptance_test.hpp"
#include "app/fault.hpp"
#include "app/state.hpp"
#include "app/workload.hpp"
#include "sim/simulator.hpp"

namespace synergy {
namespace {

TEST(ApplicationStateTest, DeterministicEvolution) {
  ApplicationState a(42);
  ApplicationState b(42);
  for (int i = 0; i < 20; ++i) {
    a.local_step(i);
    b.local_step(i);
    a.apply_message(i * 3, false);
    b.apply_message(i * 3, false);
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.output(), b.output());
}

TEST(ApplicationStateTest, DifferentSeedsDiverge) {
  ApplicationState a(1);
  ApplicationState b(2);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ApplicationStateTest, SnapshotRestoreRoundTrip) {
  ApplicationState a(7);
  for (int i = 0; i < 10; ++i) a.local_step(i);
  const Bytes snap = a.snapshot();
  const std::uint64_t fp = a.fingerprint();
  a.local_step(99);
  EXPECT_NE(a.fingerprint(), fp);
  a.restore(snap);
  EXPECT_EQ(a.fingerprint(), fp);
}

TEST(ApplicationStateTest, TaintPropagatesFromMessage) {
  ApplicationState a(7);
  EXPECT_FALSE(a.tainted());
  a.apply_message(5, /*payload_tainted=*/true);
  EXPECT_TRUE(a.tainted());
}

TEST(ApplicationStateTest, CorruptTaintsAndChangesState) {
  ApplicationState a(7);
  const std::uint64_t fp = a.fingerprint();
  a.corrupt(12345);
  EXPECT_TRUE(a.tainted());
  EXPECT_NE(a.fingerprint(), fp);
}

TEST(ApplicationStateTest, RollbackClearsTaint) {
  ApplicationState a(7);
  const Bytes clean = a.snapshot();
  a.corrupt(1);
  a.restore(clean);
  EXPECT_FALSE(a.tainted());
}

TEST(AcceptanceTestTest, PerfectCoverageDetectsAllErrors) {
  AtParams p;
  p.coverage = 1.0;
  AcceptanceTest at(p, Rng(1));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(at.run(/*message_tainted=*/true));
    EXPECT_TRUE(at.run(/*message_tainted=*/false));
  }
  EXPECT_EQ(at.missed_detections(), 0u);
  EXPECT_EQ(at.false_alarms(), 0u);
}

TEST(AcceptanceTestTest, PartialCoverageMissesSomeErrors) {
  AtParams p;
  p.coverage = 0.5;
  AcceptanceTest at(p, Rng(2));
  int passes = 0;
  for (int i = 0; i < 10'000; ++i) passes += at.run(true);
  EXPECT_NEAR(passes / 10'000.0, 0.5, 0.05);
  EXPECT_EQ(at.missed_detections(), static_cast<std::uint64_t>(passes));
}

TEST(AcceptanceTestTest, FalseAlarmsRejectCleanMessages) {
  AtParams p;
  p.false_alarm = 0.1;
  AcceptanceTest at(p, Rng(3));
  int failures = 0;
  for (int i = 0; i < 10'000; ++i) failures += !at.run(false);
  EXPECT_NEAR(failures / 10'000.0, 0.1, 0.02);
}

TEST(SoftwareFaultModelTest, ZeroRateNeverActivates) {
  SoftwareFaultModel model(SoftwareFaultParams{}, Rng(1));
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_FALSE(model.on_send().has_value());
  }
}

TEST(SoftwareFaultModelTest, ActivationRateApproximatelyCorrect) {
  SoftwareFaultParams p;
  p.activation_per_send = 0.2;
  SoftwareFaultModel model(p, Rng(2));
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) hits += model.on_send().has_value();
  EXPECT_NEAR(hits / 10'000.0, 0.2, 0.02);
  EXPECT_EQ(model.activations(), static_cast<std::uint64_t>(hits));
}

TEST(WorkloadDriverTest, GeneratesApproximatePoissonRates) {
  Simulator sim;
  WorkloadParams p;
  p.p1_internal_rate = 10.0;
  p.p1_external_rate = 1.0;
  p.p2_internal_rate = 5.0;
  p.p2_external_rate = 0.0;
  p.step_rate = 0.0;
  WorkloadDriver driver(sim, p, Rng(7));
  int c1_int = 0, c1_ext = 0, p2_int = 0, p2_ext = 0;
  driver.set_component1_send([&](bool ext, std::uint64_t) {
    (ext ? c1_ext : c1_int)++;
  });
  driver.set_p2_send([&](bool ext, std::uint64_t) {
    (ext ? p2_ext : p2_int)++;
  });
  driver.start(TimePoint::origin() + Duration::seconds(200));
  sim.run();
  EXPECT_NEAR(c1_int / 200.0, 10.0, 1.0);
  EXPECT_NEAR(c1_ext / 200.0, 1.0, 0.3);
  EXPECT_NEAR(p2_int / 200.0, 5.0, 0.7);
  EXPECT_EQ(p2_ext, 0);
}

TEST(WorkloadDriverTest, StopHaltsGeneration) {
  Simulator sim;
  WorkloadParams p;
  p.p1_internal_rate = 100.0;
  WorkloadDriver driver(sim, p, Rng(8));
  int count = 0;
  driver.set_component1_send([&](bool, std::uint64_t) { ++count; });
  driver.start(TimePoint::origin() + Duration::seconds(100));
  sim.schedule_at(TimePoint::origin() + Duration::seconds(1),
                  [&] { driver.stop(); });
  sim.run();
  EXPECT_NEAR(count, 100, 40);
}

}  // namespace
}  // namespace synergy
