// Regression pins for the recovery-line discipline (DESIGN.md §7,
// finding 6): boundary-derived checkpoint indices, repair-window freezes,
// and purge-above-line semantics.
#include <gtest/gtest.h>

#include "analysis/checkers.hpp"
#include "core/system.hpp"

namespace synergy {
namespace {

SystemConfig base_config(std::uint64_t seed) {
  SystemConfig c;
  c.scheme = Scheme::kCoordinated;
  c.seed = seed;
  c.workload.p1_internal_rate = 3.0;
  c.workload.p2_internal_rate = 3.0;
  c.workload.p1_external_rate = 0.3;
  c.workload.p2_external_rate = 0.3;
  c.workload.step_rate = 1.0;
  c.tb.interval = Duration::seconds(10);
  c.repair_latency = Duration::seconds(2);
  return c;
}

TEST(RecoveryLineTest, IndicesStayBoundaryAlignedAcrossSwRecovery) {
  // A software recovery landing between two processes' expiries must not
  // step-misalign their checkpoint schedules: afterwards every process
  // commits index k at ~k*Delta.
  SystemConfig c = base_config(23);
  c.sw_fault.activation_per_send = 0.0;
  System system(c);
  system.start(TimePoint::origin() + Duration::seconds(300));
  // Fire the error as close to a boundary as possible.
  system.schedule_sw_error(TimePoint::origin() + Duration::seconds(100) +
                           Duration::micros(50));
  system.run();
  ASSERT_TRUE(system.sw_recovery().has_value());

  // Post-recovery stable begins: same index within milliseconds on both
  // survivors, at the boundary instants.
  std::map<std::uint64_t, std::vector<double>> begin_times;
  for (const auto& e : system.trace().of_kind(TraceKind::kStableBegin)) {
    const double t = e.t.to_seconds();
    // Exclude the horizon edge, where one survivor's expiry may be cut off.
    if (t > 112 && t < 288) begin_times[e.a].push_back(t);
  }
  ASSERT_GE(begin_times.size(), 5u);
  for (const auto& [ndc, times] : begin_times) {
    ASSERT_EQ(times.size(), 2u) << "index " << ndc;  // two survivors
    EXPECT_LT(std::abs(times[0] - times[1]), 0.1) << "index " << ndc;
    // Boundary alignment: index k begins at ~k*10 s.
    EXPECT_NEAR(times[0], static_cast<double>(ndc) * 10.0, 0.1)
        << "index " << ndc;
  }
}

TEST(RecoveryLineTest, SurvivorCheckpointingFreezesDuringRepair) {
  SystemConfig c = base_config(24);
  c.repair_latency = Duration::seconds(25);  // spans two boundaries
  System system(c);
  system.start(TimePoint::origin() + Duration::seconds(200));
  // Fault just before a boundary: without the freeze, survivors would
  // commit during the repair window.
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(100) -
                               Duration::millis(50),
                           NodeId{1});
  system.run();
  ASSERT_EQ(system.hw_recoveries().size(), 1u);
  std::size_t commits_in_window = 0;
  for (const auto& e : system.trace().of_kind(TraceKind::kStableCommit)) {
    const double t = e.t.to_seconds();
    if (t > 99.96 && t < 124.95) ++commits_in_window;
  }
  EXPECT_EQ(commits_in_window, 0u);
  // And checkpointing resumed on the boundary after the restart.
  const GlobalState line = system.stable_line_state();
  EXPECT_TRUE(check_consistency(line).empty());
  EXPECT_TRUE(check_recoverability(line).empty());
}

TEST(RecoveryLineTest, StableStoreDiscardAbove) {
  Simulator sim;
  StableStore store(sim, StableStoreParams{});
  for (StableSeq n = 1; n <= 5; ++n) {
    CheckpointRecord rec;
    rec.owner = kP2;
    rec.ndc = n;
    store.commit_now(std::move(rec));
  }
  store.discard_above(3);
  EXPECT_EQ(store.latest_ndc(), 3u);
  EXPECT_FALSE(store.committed_for(4).has_value());
  EXPECT_TRUE(store.committed_for(2).has_value());
}

TEST(RecoveryLineTest, AuditUsesCommonIndexLikeRecovery) {
  // Immediately after a fault+repair straddling an expiry, the survivors
  // may briefly hold a higher index than the victim ever reached; the
  // audit surface must pair records at the common index only.
  SystemConfig c = base_config(25);
  System system(c);
  system.start(TimePoint::origin() + Duration::seconds(400));
  for (int k = 0; k < 6; ++k) {
    system.schedule_hw_fault(TimePoint::origin() +
                                 Duration::seconds(50 + 50 * k) -
                                 Duration::millis(k * 7),
                             NodeId{static_cast<std::uint32_t>(k % 3)});
  }
  std::size_t violations = 0;
  for (int s = 12; s < 400; s += 7) {
    system.sim().schedule_at(
        TimePoint::origin() + Duration::seconds(s), [&] {
          const GlobalState line = system.stable_line_state();
          violations += check_consistency(line).size() +
                        check_recoverability(line).size();
        });
  }
  system.run();
  EXPECT_EQ(violations, 0u);
  EXPECT_GE(system.hw_recoveries().size(), 4u);
}

/// Counts the oracle audits computed on this thread while in scope.
class AuditCounter {
 public:
  AuditCounter() {
    set_audit_observer(
        [this](AuditKind, const GlobalState&, const std::vector<Violation>&) {
          ++audits;
        });
  }
  ~AuditCounter() { set_audit_observer({}); }
  AuditCounter(const AuditCounter&) = delete;
  AuditCounter& operator=(const AuditCounter&) = delete;
  std::size_t audits = 0;
};

TEST(LineVerdictsTest, AnUnchangedLineIsAuditedOnce) {
  SystemConfig c = base_config(26);
  System system(c);
  system.start(TimePoint::origin() + Duration::seconds(60));
  system.run_until(TimePoint::origin() + Duration::seconds(35));
  const std::vector<Node*> nodes = {
      &system.node(kP1Act), &system.node(kP1Sdw), &system.node(kP2)};
  const auto ndc = common_valid_line(nodes);
  ASSERT_TRUE(ndc.has_value());
  ASSERT_GT(*ndc, 0u);

  LineVerdicts verdicts;
  AuditCounter counter;
  const auto line = stable_line_at(nodes, *ndc);
  ASSERT_TRUE(line.has_value());
  const std::vector<Violation> found = verdicts.all(*line);
  EXPECT_EQ(counter.audits, 2u);  // consistency + recoverability
  EXPECT_TRUE(found.empty());
  EXPECT_EQ(verdicts.consistency(*line), 0u);
  EXPECT_EQ(verdicts.all(*line).size(), found.size());
  EXPECT_EQ(counter.audits, 2u);

  // A commit elsewhere — another index of P2's store — leaves the line's
  // records as they were: no audit.
  CheckpointRecord newer = system.node(kP2).engine().make_record(CkptKind::kStable);
  newer.ndc = *ndc + 5;
  system.node(kP2).sstore().commit_now(std::move(newer));
  const auto same = stable_line_at(nodes, *ndc);
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(same->key, line->key);
  (void)verdicts.all(*same);
  EXPECT_EQ(counter.audits, 2u);

  // A flip on one of the line's records: the line no longer decodes. Flip
  // the bit back and the bytes are as they were, but the entry's id moved
  // on, so the line is audited afresh.
  StableStore& sdw = system.node(kP1Sdw).sstore();
  ASSERT_TRUE(sdw.corrupt_retained(*ndc, 40));
  const std::uint64_t reads = sdw.corrupt_reads();
  EXPECT_FALSE(stable_line_at(nodes, *ndc).has_value());
  EXPECT_EQ(sdw.corrupt_reads(), reads + 1);
  ASSERT_TRUE(sdw.corrupt_retained(*ndc, 40));
  const auto healed = stable_line_at(nodes, *ndc);
  ASSERT_TRUE(healed.has_value());
  EXPECT_NE(healed->key, line->key);
  EXPECT_EQ(verdicts.consistency(*healed), 0u);
  EXPECT_EQ(counter.audits, 3u);
  EXPECT_TRUE(verdicts.all(*healed).empty());
  EXPECT_EQ(counter.audits, 4u);
}

TEST(LineVerdictsTest, MissionAuditMatchesAFreshAudit) {
  // The memoized periodic audit returns what check_all over the decoded
  // line returns, at every point of a faulted mission.
  SystemConfig c = base_config(27);
  c.harden_recovery = true;
  c.enable_monitor = true;
  System system(c);
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(47),
                           NodeId{1});
  system.start(TimePoint::origin() + Duration::seconds(120));
  for (int t = 5; t <= 120; t += 5) {
    system.run_until(TimePoint::origin() + Duration::seconds(t));
    const std::vector<Violation> memo = system.audit_stable_line();
    const std::vector<Violation> fresh = check_all(system.stable_line_state());
    ASSERT_EQ(memo.size(), fresh.size()) << "at " << t << " s";
    for (std::size_t i = 0; i < memo.size(); ++i) {
      EXPECT_EQ(memo[i].describe(), fresh[i].describe());
    }
  }
}

}  // namespace
}  // namespace synergy
