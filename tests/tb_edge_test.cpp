// TB engine edges: absolute timer schedules, resynchronization effects,
// restart semantics, and the Figure-2 ablation knobs at the unit level.
#include <gtest/gtest.h>

#include "core/system.hpp"

namespace synergy {
namespace {

SystemConfig tb_config(std::uint64_t seed = 1) {
  SystemConfig c;
  c.scheme = Scheme::kCoordinated;
  c.seed = seed;
  c.workload = WorkloadParams{0, 0, 0, 0, 0};
  c.tb.interval = Duration::seconds(10);
  return c;
}

TEST(TbEdgeTest, TimersSitOnTheAbsoluteSchedule) {
  // All processes aim for the same k*Delta instants: expiries cluster
  // within the clock-deviation bound, not at arbitrary phases.
  SystemConfig c = tb_config(3);
  c.clock.delta = Duration::millis(40);
  System system(c);
  system.start(TimePoint::origin() + Duration::seconds(35));
  system.run();
  std::vector<double> first_expiry(3, -1);
  for (const auto& e : system.trace().of_kind(TraceKind::kStableBegin)) {
    auto& t = first_expiry[e.process.value()];
    if (t < 0) t = e.t.to_seconds();
  }
  for (double t : first_expiry) {
    ASSERT_GT(t, 0);
    // First expiry at ~10 s, within the deviation bound.
    EXPECT_NEAR(t, 10.0, 0.05);
  }
  const double spread =
      *std::max_element(first_expiry.begin(), first_expiry.end()) -
      *std::min_element(first_expiry.begin(), first_expiry.end());
  EXPECT_LE(spread, 0.05);
  EXPECT_GT(spread, 0.0);  // clocks do differ
}

TEST(TbEdgeTest, ResyncShrinksTheDeviationBound) {
  SystemConfig c = tb_config(4);
  c.clock.rho = 1e-4;
  System system(c);
  system.start(TimePoint::origin() + Duration::seconds(100));
  system.run_until(TimePoint::origin() + Duration::seconds(50));
  TbEngine* tb = system.node(kP2).tb();
  const Duration before = tb->blocking_period(false);
  system.clocks().resync_all();
  const Duration after = tb->blocking_period(false);
  EXPECT_LT(after, before);  // eps reset to ~0
}

TEST(TbEdgeTest, NdcMonotoneAcrossRecoveries) {
  SystemConfig c = tb_config(5);
  c.workload.p1_internal_rate = 1.0;
  c.workload.p2_internal_rate = 1.0;
  c.workload.p1_external_rate = 0.2;
  c.workload.p2_external_rate = 0.2;
  System system(c);
  system.start(TimePoint::origin() + Duration::seconds(300));
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(95),
                           NodeId{2});
  std::vector<StableSeq> samples;
  for (int s = 20; s < 300; s += 20) {
    system.sim().schedule_at(TimePoint::origin() + Duration::seconds(s),
                             [&] { samples.push_back(
                                       system.node(kP2).tb()->ndc()); });
  }
  system.run();
  // Ndc may step back to the recovery line once but must then resume
  // monotonically and keep growing.
  EXPECT_GT(samples.back(), samples.front());
  std::size_t decreases = 0;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i] < samples[i - 1]) ++decreases;
  }
  EXPECT_LE(decreases, 1u);
}

TEST(TbEdgeTest, StopCancelsPendingWork) {
  System system(tb_config(6));
  system.start(TimePoint::origin() + Duration::seconds(1'000));
  system.run_until(TimePoint::origin() + Duration::seconds(5));
  TbEngine* tb = system.node(kP2).tb();
  tb->stop();
  system.run_until(TimePoint::origin() + Duration::seconds(40));
  EXPECT_EQ(tb->checkpoints_taken(), 0u);
  // And restarting re-arms on the absolute schedule.
  tb->reset_after_recovery(0);
  system.run_until(TimePoint::origin() + Duration::seconds(61));
  EXPECT_GE(tb->checkpoints_taken(), 2u);
}

TEST(TbEdgeTest, OmitUnackedLogKnobClearsRecords) {
  SystemConfig c = tb_config(7);
  c.workload.p1_internal_rate = 30.0;
  c.workload.p2_internal_rate = 30.0;
  c.net.tmax = Duration::millis(100);  // keep messages in flight
  c.tb.omit_unacked_log = true;
  System system(c);
  system.start(TimePoint::origin() + Duration::seconds(25));
  system.run();
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto rec = system.node(ProcessId{i}).sstore().latest_committed();
    ASSERT_TRUE(rec.has_value());
    EXPECT_TRUE(rec->unacked.empty());
  }
}

TEST(TbEdgeTest, BlockingNoneNeverBlocks) {
  SystemConfig c = tb_config(8);
  c.tb.blocking_model = BlockingModel::kNone;
  c.workload.p1_internal_rate = 5.0;
  c.workload.p2_internal_rate = 5.0;
  System system(c);
  system.start(TimePoint::origin() + Duration::seconds(60));
  system.run();
  EXPECT_EQ(system.trace().count(TraceKind::kBlockStart), 0u);
  EXPECT_GT(system.node(kP2).tb()->checkpoints_taken(), 3u);
}

TEST(TbEdgeTest, CheckpointContentsSurviveSerializationSizes) {
  // A large record round-trips through the stable store (bytes plus the
  // re-attached view handle), and the per-KiB latency model scales
  // accordingly.
  SystemConfig c = tb_config(9);
  c.workload.p1_internal_rate = 50.0;
  c.workload.p2_internal_rate = 50.0;
  c.sstore.write_per_kib = Duration::micros(200);
  System system(c);
  system.start(TimePoint::origin() + Duration::seconds(45));
  system.run();
  // The live engine's record holds thousands of unacked messages by now.
  const CheckpointRecord rec = system.p2().make_record(CkptKind::kStable);
  EXPECT_GT(rec.encoded_size(), 10'000u);
  ByteWriter w;
  rec.serialize(w);
  ByteReader r(w.data());
  const std::optional<CheckpointRecord> decoded =
      CheckpointRecord::try_deserialize(r);
  ASSERT_TRUE(decoded.has_value());
  const CheckpointRecord& back = *decoded;
  EXPECT_EQ(back.encoded_size(), rec.encoded_size());
  StableStore& store = system.node(kP2).sstore();
  CheckpointRecord stored = rec;
  stored.ndc = 1000;
  store.commit_now(stored);
  const auto committed = store.committed_for(1000);
  ASSERT_TRUE(committed.has_value());
  EXPECT_EQ(committed->encoded_size(), rec.encoded_size());
  const Duration latency = store.write_latency_for(rec);
  EXPECT_GT(latency, c.sstore.write_base_latency + Duration::millis(1));
}

}  // namespace
}  // namespace synergy
