// Generalized protocol: topologies, contamination vectors, multi-source
// validation, multi-shadow recovery, and coordination with the adapted TB
// engine — the paper's reference-[5] direction.
#include <gtest/gtest.h>

#include "analysis/checkers.hpp"
#include "general/campaign.hpp"
#include "general/system.hpp"

namespace synergy {
namespace {

GeneralConfig quiet_config(std::uint64_t seed = 1) {
  GeneralConfig c;
  c.seed = seed;
  c.tb.interval = Duration::seconds(1'000'000);  // TB out of the way
  return c;
}

GeneralConfig live_config(std::uint64_t seed = 1) {
  GeneralConfig c;
  c.seed = seed;
  c.tb.interval = Duration::seconds(10);
  return c;
}

Topology quiet_topology(Topology t) {
  // Zero autonomous workload: tests drive engines by hand.
  std::vector<ComponentSpec> specs = t.components();
  for (auto& s : specs) {
    s.internal_rate = 0.0;
    s.external_rate = 0.0;
  }
  return Topology(std::move(specs));
}

// ---- Contamination vector algebra ------------------------------------------

TEST(ContamVectorTest, MergeTakesPointwiseMax) {
  ContamVector a{{0, 5}, {1, 2}};
  contam_merge(a, ContamVector{{1, 7}, {2, 1}});
  EXPECT_EQ(a, (ContamVector{{0, 5}, {1, 7}, {2, 1}}));
}

TEST(ContamVectorTest, CoverageIsPointwise) {
  const ContamVector contam{{0, 5}, {1, 2}};
  EXPECT_TRUE(contam_covered(contam, ContamVector{{0, 5}, {1, 3}}));
  EXPECT_FALSE(contam_covered(contam, ContamVector{{0, 4}, {1, 3}}));
  EXPECT_FALSE(contam_covered(contam, ContamVector{{0, 9}}));
  EXPECT_TRUE(contam_covered(ContamVector{}, ContamVector{}));
}

TEST(ContamVectorTest, SerializationRoundTrip) {
  const ContamVector v{{3, 11}, {7, 42}};
  ByteWriter w;
  contam_serialize(v, w);
  ByteReader r(w.data());
  EXPECT_EQ(contam_deserialize(r), v);
  EXPECT_EQ(contam_to_string(v), "3:11,7:42");
}

// ---- Topology ---------------------------------------------------------------

TEST(TopologyTest, CanonicalLayout) {
  const Topology t = Topology::canonical();
  EXPECT_EQ(t.component_count(), 2u);
  EXPECT_EQ(t.process_count(), 3u);  // low active + its shadow + high
  EXPECT_TRUE(t.has_shadow(0));
  EXPECT_FALSE(t.has_shadow(1));
  EXPECT_EQ(t.shadow_of(0), ProcessId{2});
  EXPECT_TRUE(t.is_shadow(ProcessId{2}));
  EXPECT_EQ(t.component_of(ProcessId{2}), 0u);
  EXPECT_EQ(t.process_name(ProcessId{2}), "C1.sdw");
}

TEST(TopologyTest, DualGuardedHasTwoShadows) {
  const Topology t = Topology::dual_guarded();
  EXPECT_EQ(t.process_count(), 5u);
  EXPECT_EQ(t.shadow_of(0), ProcessId{3});
  EXPECT_EQ(t.shadow_of(1), ProcessId{4});
}

TEST(TopologyTest, StarAndChainShapes) {
  const Topology star = Topology::star(4);
  EXPECT_EQ(star.component_count(), 5u);
  EXPECT_EQ(star.components()[0].peers.size(), 4u);
  const Topology chain = Topology::chain(4);
  EXPECT_EQ(chain.components()[1].peers.size(), 2u);
  EXPECT_EQ(chain.components()[3].peers.size(), 1u);
}

TEST(TopologyTest, ProcessIdsStayBelowDeviceId) {
  // The largest shapes fill every id below kDeviceId exactly.
  const Topology star = Topology::star(Topology::kMaxStarLeaves);
  EXPECT_EQ(star.process_count(), Topology::kMaxProcesses);
  EXPECT_LT(star.shadow_of(0).value(), kDeviceId.value());
  const Topology chain = Topology::chain(Topology::kMaxChainLength);
  EXPECT_EQ(chain.process_count(), Topology::kMaxProcesses);
  EXPECT_LT(chain.shadow_of(0).value(), kDeviceId.value());
  // One more would hand a process the device's id.
  EXPECT_DEATH(Topology::star(Topology::kMaxStarLeaves + 1), "precondition");
  EXPECT_DEATH(Topology::chain(Topology::kMaxChainLength + 1), "precondition");
  std::vector<ComponentSpec> specs(Topology::kMaxProcesses);
  specs[0].confidence = Confidence::kLow;
  EXPECT_DEATH(Topology{specs}, "precondition");
}

// ---- Engine behaviour ---------------------------------------------------------

class GeneralFixture : public ::testing::Test {
 protected:
  void build(Topology t, const GeneralConfig& c = quiet_config()) {
    system_ = std::make_unique<GeneralSystem>(quiet_topology(std::move(t)), c);
    system_->start(TimePoint::origin() + Duration::seconds(1'000'000));
  }
  void component_send(std::uint32_t c, bool external,
                      std::uint64_t input = 1) {
    system_->engine(system_->topology().active_of(c))
        .on_app_send(external, input);
    if (system_->topology().has_shadow(c)) {
      system_->engine(system_->topology().shadow_of(c))
          .on_app_send(external, input);
    }
  }
  void settle() {
    system_->run_until(system_->sim().now() + Duration::seconds(1));
  }
  std::unique_ptr<GeneralSystem> system_;
};

TEST_F(GeneralFixture, DirtyInternalSendContaminatesPeer) {
  build(Topology::canonical());
  component_send(0, false);
  settle();
  GeneralEngine& high = system_->engine(ProcessId{1});
  EXPECT_TRUE(high.dirty());
  EXPECT_EQ(high.absorbed(), (ContamVector{{0, 1}}));
  // Type-1 checkpoint anchored the contamination.
  ASSERT_TRUE(high.latest_volatile().has_value());
  EXPECT_FALSE(high.latest_volatile()->dirty_bit);
}

TEST_F(GeneralFixture, ValidationBroadcastClearsCoveredDirt) {
  build(Topology::canonical());
  component_send(0, false);
  settle();
  ASSERT_TRUE(system_->engine(ProcessId{1}).dirty());
  component_send(0, true);  // AT pass covers {0: <=2}
  settle();
  EXPECT_FALSE(system_->engine(ProcessId{1}).dirty());
  EXPECT_FALSE(system_->engine(ProcessId{0}).pseudo_dirty());
  // The shadow reclaimed its suppressed log.
  EXPECT_TRUE(system_->engine(ProcessId{2}).suppressed_log().empty());
}

TEST_F(GeneralFixture, MultiSourceContaminationNeedsBothValidations) {
  build(Topology::dual_guarded());
  component_send(0, false);  // source A contaminates S
  component_send(1, false);  // source B contaminates S
  settle();
  GeneralEngine& shared = system_->engine(ProcessId{2});
  ASSERT_TRUE(shared.dirty());
  EXPECT_EQ(shared.absorbed().size(), 2u);

  component_send(0, true);  // validates source A only
  settle();
  EXPECT_TRUE(shared.dirty()) << "source B still uncovered";
  component_send(1, true);  // validates source B
  settle();
  EXPECT_FALSE(shared.dirty());
}

TEST_F(GeneralFixture, SecondHopPropagatesTheSourceVector) {
  build(Topology::chain(3));  // C0(low) -> C1 -> C2
  component_send(0, false);   // contaminate C1
  settle();
  ASSERT_TRUE(system_->engine(ProcessId{1}).dirty());
  component_send(1, false);   // C1 (dirty) multicasts to C0 and C2
  settle();
  GeneralEngine& c2 = system_->engine(ProcessId{2});
  EXPECT_TRUE(c2.dirty());
  // C2's dirt names the ORIGINAL source (component 0), not C1.
  ASSERT_EQ(c2.absorbed().size(), 1u);
  EXPECT_EQ(c2.absorbed().begin()->first, 0u);
  // One validation by C0 clears the whole chain.
  component_send(0, true);
  settle();
  EXPECT_FALSE(system_->engine(ProcessId{1}).dirty());
  EXPECT_FALSE(c2.dirty());
}

TEST_F(GeneralFixture, ShadowSuppressesAndMirrors) {
  build(Topology::canonical());
  component_send(0, false);
  component_send(0, false);
  EXPECT_EQ(system_->engine(ProcessId{2}).suppressed_log().size(), 2u);
  settle();
  // The shadow receives the high component's replies like the active does.
  component_send(1, false);
  settle();
  EXPECT_EQ(system_->trace().count(TraceKind::kDeliverApp, ProcessId{2}), 1u);
}

TEST_F(GeneralFixture, ProtocolBlobDecodesToTheLiveState) {
  // Records with sent and received views and a shadow suppression log:
  // the one decoder reads back what the one encoder wrote, and the oracles'
  // facts read exactly the engine's live views, in its own history.
  build(Topology::canonical());
  component_send(0, false);
  component_send(0, false);
  settle();
  component_send(1, false);
  settle();
  ASSERT_EQ(system_->engine(ProcessId{2}).suppressed_log().size(), 2u);
  std::size_t with_both_logs = 0;
  for (std::uint32_t p = 0; p < 3; ++p) {
    GeneralEngine& engine = system_->engine(ProcessId{p});
    const CheckpointRecord rec = engine.make_record(CkptKind::kType1);
    const GeneralProtocolState s =
        GeneralProtocolState::decode(rec.protocol_state);
    EXPECT_EQ(s.msg_sn, engine.msg_sn());
    EXPECT_EQ(s.absorbed, engine.absorbed());
    EXPECT_EQ(s.validated, engine.validated());
    ASSERT_EQ(s.msg_log.size(), engine.suppressed_log().size());
    for (std::size_t i = 0; i < s.msg_log.size(); ++i) {
      EXPECT_EQ(s.msg_log[i].sn, engine.suppressed_log()[i].sn);
      EXPECT_EQ(s.msg_log[i].payload, engine.suppressed_log()[i].payload);
    }
    const ProcessFacts facts = facts_from_record(rec);
    ASSERT_NE(facts.views.log, nullptr);
    EXPECT_EQ(s.views, facts.views.mark);
    EXPECT_FALSE(s.views.settled);
    EXPECT_EQ(&facts.views.log->sent(), &engine.sent_views());
    EXPECT_EQ(s.views.sent_len, engine.sent_views().size());
    EXPECT_EQ(s.views.recv_len, engine.recv_views().size());
    if (s.views.sent_len > 0 && s.views.recv_len > 0) ++with_both_logs;
    // The record is charged exactly its serialized bytes, whatever views
    // its mark covers.
    ByteWriter w;
    rec.serialize(w);
    EXPECT_EQ(rec.encoded_size(), w.size());
    // Restoring the blob and encoding again reproduces it byte for byte.
    engine.restore_protocol_state(rec.protocol_state);
    EXPECT_EQ(rec.protocol_state, engine.snapshot_protocol_state());
  }
  EXPECT_GT(with_both_logs, 0u);
}

TEST_F(GeneralFixture, SoftwareRecoveryFailsOverEveryGuardedComponent) {
  build(Topology::dual_guarded());
  component_send(0, false);
  settle();
  // Corrupt source A and force its AT.
  system_->schedule_sw_error(system_->sim().now() + Duration::seconds(1), 0);
  settle();
  ASSERT_TRUE(system_->sw_recovery().has_value());
  // Both guarded components failed over to their shadows.
  EXPECT_FALSE(system_->engine(ProcessId{0}).alive());
  EXPECT_FALSE(system_->engine(ProcessId{1}).alive());
  EXPECT_TRUE(system_->engine(ProcessId{3}).active_role());
  EXPECT_TRUE(system_->engine(ProcessId{4}).active_role());
  // The contaminated shared component rolled back to a clean state.
  EXPECT_FALSE(system_->engine(ProcessId{2}).dirty());
  EXPECT_FALSE(system_->app(ProcessId{2}).tainted());
}

TEST_F(GeneralFixture, SoftwareRecoveryRecordsNothingWhileTracingIsOff) {
  GeneralConfig config = quiet_config();
  config.enable_trace = false;
  build(Topology::dual_guarded(), config);
  component_send(0, false);
  settle();
  system_->schedule_sw_error(system_->sim().now() + Duration::seconds(1), 0);
  settle();
  ASSERT_TRUE(system_->sw_recovery().has_value());
  EXPECT_GT(system_->sw_recovery()->rolled_back, 0u);
  EXPECT_TRUE(system_->trace().events().empty());
}

TEST_F(GeneralFixture, StarTopologyFanOut) {
  build(Topology::star(3));
  component_send(0, false);  // hub multicasts to all leaves
  settle();
  for (std::uint32_t leaf = 1; leaf <= 3; ++leaf) {
    EXPECT_TRUE(system_->engine(ProcessId{leaf}).dirty()) << leaf;
  }
  component_send(0, true);
  settle();
  for (std::uint32_t leaf = 1; leaf <= 3; ++leaf) {
    EXPECT_FALSE(system_->engine(ProcessId{leaf}).dirty()) << leaf;
  }
}

// ---- TB coordination & hardware recovery ---------------------------------------

TEST(GeneralSystemTest, AdaptedTbCoordinatesGeneralEngines) {
  Topology t = Topology::dual_guarded();
  std::vector<ComponentSpec> specs = t.components();
  for (auto& s : specs) {
    s.internal_rate = 1.0;
    s.external_rate = 0.2;
  }
  GeneralSystem system(Topology(std::move(specs)), live_config(3));
  system.start(TimePoint::origin() + Duration::seconds(200));
  system.run();
  for (std::uint32_t p = 0; p < system.topology().process_count(); ++p) {
    EXPECT_GE(system.tb(ProcessId{p}).checkpoints_taken(), 18u) << p;
  }
  const GlobalState line = system.stable_line_state();
  const auto consistency = check_consistency(line);
  EXPECT_TRUE(consistency.empty()) << consistency.front().describe();
  const auto recover = check_recoverability(line);
  EXPECT_TRUE(recover.empty()) << recover.front().describe();
}

TEST(GeneralSystemTest, HardwareRecoveryRestoresEveryProcess) {
  Topology t = Topology::chain(3);
  std::vector<ComponentSpec> specs = t.components();
  for (auto& s : specs) {
    s.internal_rate = 1.0;
    s.external_rate = 0.2;
  }
  GeneralSystem system(Topology(std::move(specs)), live_config(4));
  system.start(TimePoint::origin() + Duration::seconds(300));
  system.schedule_hw_fault(TimePoint::origin() + Duration::seconds(150),
                           ProcessId{1});
  system.run();
  ASSERT_EQ(system.hw_recoveries().size(), 1u);
  for (const auto d : system.hw_recoveries()[0].rollback_distance) {
    EXPECT_GE(d, Duration::zero());
    EXPECT_LE(d, Duration::seconds(60));
  }
  const GlobalState line = system.stable_line_state();
  EXPECT_TRUE(check_consistency(line).empty());
  EXPECT_TRUE(check_recoverability(line).empty());
  EXPECT_TRUE(check_software_recoverability(line).empty() ||
              !line.processes.empty());
}

// A software error detected while a crashed node waits for its hardware
// recovery, in star-4 missions with the campaign's seeded crash and error.
// The crashed node is dirty and its volatile checkpoint went with its RAM;
// each of these missions used to abort the process in on_at_failure.
TEST(GeneralSystemTest, SoftwareRecoveryLeavesACrashedNodeToHardwareRecovery) {
  struct Case {
    Duration mission;
    Duration interval;
    std::uint64_t seed;
    bool clean;
  };
  const Case cases[] = {
      // `synergy general --topology star --size 4 --reps 200 --seed 3
      // --duration 30`, mission 153.
      {Duration::seconds(30), Duration::seconds(10), 16526233403567444896ULL,
       true},
      {Duration::seconds(30), Duration::seconds(2), 7285265299121834259ULL,
       true},
      // Runs to its audit, which still finds an inconsistent line: the
      // crashed node's crash-time state joins the fresh recovery line.
      {Duration::seconds(20), Duration::seconds(10), 16752084287252387564ULL,
       false},
  };
  for (const Case& c : cases) {
    GeneralCampaignConfig config;
    config.size = 4;
    config.mission = c.mission;
    config.tb_interval = c.interval;
    const GeneralMissionReport r = run_general_mission(config, c.seed);
    EXPECT_EQ(r.hw_recoveries, 1u) << c.seed;
    EXPECT_EQ(r.sw_recoveries, 1u) << c.seed;
    EXPECT_EQ(r.ok, c.clean) << c.seed;
  }
}

// perfbench's star-256 workload at `--seed 7009`, mission 6. The software
// recovery at t=10 s commits a fresh line at index 2, and a node whose
// clock lags then commits its index-1 boundary above it. When a node
// crashes at 16.5 s, the nodes' newest indices differ, and the restart
// used to abort on the index some node lacks. The shared restart walks
// down to the newest index every node has.
TEST(GeneralSystemTest, RestartWalksDownToAnIndexEveryNodeHas) {
  GeneralCampaignConfig config;
  config.size = 256;
  config.mission = Duration::seconds(30);
  const GeneralMissionReport r =
      run_general_mission(config, 2030030104138053823ULL);
  EXPECT_EQ(r.hw_recoveries, 1u);
  EXPECT_EQ(r.sw_recoveries, 1u);
  EXPECT_TRUE(r.ok);
}

struct GeneralPropertyCase {
  std::uint64_t seed;
  int topology;  // 0 canonical, 1 dual, 2 star, 3 chain
};

class GeneralProperty
    : public ::testing::TestWithParam<GeneralPropertyCase> {};

TEST_P(GeneralProperty, RecoveryLineStaysConsistent) {
  const auto pc = GetParam();
  Topology base = pc.topology == 0   ? Topology::canonical()
                  : pc.topology == 1 ? Topology::dual_guarded()
                  : pc.topology == 2 ? Topology::star(3)
                                     : Topology::chain(4);
  std::vector<ComponentSpec> specs = base.components();
  for (auto& s : specs) {
    s.internal_rate = 2.0;
    s.external_rate = 0.3;
  }
  GeneralConfig c = live_config(pc.seed);
  GeneralSystem system(Topology(std::move(specs)), c);
  Rng rng(pc.seed * 131 + 9);
  system.start(TimePoint::origin() + Duration::seconds(250));
  system.schedule_hw_fault(
      TimePoint::origin() +
          rng.uniform(Duration::seconds(50), Duration::seconds(200)),
      ProcessId{static_cast<std::uint32_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(system.topology().process_count()) -
                 1))});
  system.run();

  const GlobalState line = system.stable_line_state();
  for (const auto& v : check_consistency(line)) {
    ADD_FAILURE() << "seed " << pc.seed << " topo " << pc.topology << ": "
                  << v.describe();
  }
  for (const auto& v : check_recoverability(line)) {
    ADD_FAILURE() << "seed " << pc.seed << " topo " << pc.topology << ": "
                  << v.describe();
  }
}

std::vector<GeneralPropertyCase> general_cases() {
  std::vector<GeneralPropertyCase> cases;
  std::uint64_t seed = 1;
  for (int topo = 0; topo < 4; ++topo) {
    for (int rep = 0; rep < 3; ++rep) {
      cases.push_back(GeneralPropertyCase{seed++, topo});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneralProperty, ::testing::ValuesIn(general_cases()),
    [](const ::testing::TestParamInfo<GeneralPropertyCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_topo" +
             std::to_string(info.param.topology);
    });

}  // namespace
}  // namespace synergy
