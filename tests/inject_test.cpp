// Injector-layer tests: the FaultyNetwork decorator, the seeded timed
// fault schedule, and the campaign driver's deterministic replay — the
// machinery behind `synergy chaos`.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/campaign.hpp"
#include "inject/fault_schedule.hpp"
#include "inject/faulty_network.hpp"
#include "net/reliable.hpp"
#include "sim/simulator.hpp"

namespace synergy {
namespace {

Message internal_to(ProcessId receiver) {
  Message m;
  m.kind = MsgKind::kInternal;
  m.receiver = receiver;
  return m;
}

TEST(FaultyNetworkTest, DropSilencesTheMessageButNotTheUnackedLog) {
  Simulator sim;
  NetFaultParams f;
  f.drop_probability = 1.0;
  FaultyNetwork net(sim, NetworkParams{}, f, Rng(1));
  int delivered = 0;
  ReliableEndpoint a(net, ProcessId{0}, [](const Message&) {});
  ReliableEndpoint b(net, ProcessId{1},
                     [&](const Message&) { ++delivered; });
  a.send(internal_to(b.self()));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.injected_drops(), 1u);
  // The drop is invisible to the sender's transport, so the message stays
  // in the unacked log — which is exactly what re-send recovery needs.
  EXPECT_EQ(a.unacked_count(), 1u);
}

TEST(FaultyNetworkTest, DuplicateArrivesTwiceAndIsConsumedOnce) {
  Simulator sim;
  NetFaultParams f;
  f.duplicate_probability = 1.0;
  FaultyNetwork net(sim, NetworkParams{}, f, Rng(2));
  std::vector<Message> inbox;
  ReliableEndpoint a(net, ProcessId{0}, [](const Message&) {});
  ReliableEndpoint b(net, ProcessId{1},
                     [&](const Message& m) { inbox.push_back(m); });
  a.send(internal_to(b.self()));
  sim.run();
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(net.injected_duplicates(), 1u);
  EXPECT_TRUE(b.consume(inbox[0]));
  EXPECT_FALSE(b.consume(inbox[1]));  // transport_seq dedup
}

TEST(FaultyNetworkTest, BitflipIsCaughtByTheFrameCrcAndDiscarded) {
  Simulator sim;
  NetFaultParams f;
  f.bitflip_probability = 1.0;
  FaultyNetwork net(sim, NetworkParams{}, f, Rng(3));
  int delivered = 0;
  ReliableEndpoint a(net, ProcessId{0}, [](const Message&) {});
  ReliableEndpoint b(net, ProcessId{1},
                     [&](const Message&) { ++delivered; });
  a.send(internal_to(b.self()));
  sim.run();
  // The damaged frame never reaches the receiver as data: the CRC check
  // discards it, leaving the message unacked for re-send recovery.
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.injected_bitflips(), 1u);
  EXPECT_EQ(net.corrupt_frames_dropped(), 1u);
  EXPECT_EQ(a.unacked_count(), 1u);
}

TEST(FaultyNetworkTest, InjectedDelayBreachesTheDeliveryBound) {
  Simulator sim;
  NetFaultParams f;
  f.delay_probability = 1.0;
  f.delay_factor_max = 4.0;
  NetworkParams np;
  FaultyNetwork net(sim, np, f, Rng(4));
  std::size_t late = 0;
  Duration worst = Duration::zero();
  net.set_delivery_bound_observer([&](const Message&, Duration lateness) {
    ++late;
    worst = std::max(worst, lateness);
  });
  int delivered = 0;
  ReliableEndpoint a(net, ProcessId{0}, [](const Message&) {});
  ReliableEndpoint b(net, ProcessId{1},
                     [&](const Message&) { ++delivered; });
  a.send(internal_to(b.self()));
  sim.run();
  EXPECT_EQ(delivered, 1);  // delayed, not lost
  EXPECT_EQ(net.injected_delays(), 1u);
  EXPECT_GE(late, 1u);
  EXPECT_GT(worst, Duration::zero());
}

TEST(FaultyNetworkTest, SameSeedInjectsTheSamePattern) {
  // The per-message fault stream is a pure function of the seed: two
  // identical traffic sequences see identical injections.
  auto run = [](std::uint64_t seed) {
    Simulator sim;
    NetFaultParams f;
    f.drop_probability = 0.2;
    f.duplicate_probability = 0.2;
    f.reorder_probability = 0.2;
    f.delay_probability = 0.1;
    f.bitflip_probability = 0.1;
    FaultyNetwork net(sim, NetworkParams{}, f, Rng(seed));
    std::vector<Message> inbox;
    ReliableEndpoint a(net, ProcessId{0}, [](const Message&) {});
    ReliableEndpoint b(net, ProcessId{1},
                       [&](const Message& m) { inbox.push_back(m); });
    for (int i = 0; i < 200; ++i) a.send(internal_to(b.self()));
    sim.run();
    return std::tuple{net.injected_drops(), net.injected_duplicates(),
                      net.injected_reorders(), net.injected_delays(),
                      net.injected_bitflips(), inbox.size()};
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(FaultScheduleTest, GenerationIsDeterministicInTheSeed) {
  InjectorRates rates = default_injector_rates();
  const auto gen = [&](std::uint64_t seed) {
    return FaultSchedule::generate(seed, rates, TimePoint::origin(),
                                   Duration::seconds(600), 1e-5, 3);
  };
  const FaultSchedule s1 = gen(7);
  const FaultSchedule s2 = gen(7);
  const FaultSchedule s3 = gen(8);
  ASSERT_EQ(s1.events().size(), s2.events().size());
  for (std::size_t i = 0; i < s1.events().size(); ++i) {
    EXPECT_EQ(s1.events()[i].kind, s2.events()[i].kind);
    EXPECT_EQ(s1.events()[i].at, s2.events()[i].at);
    EXPECT_EQ(s1.events()[i].target, s2.events()[i].target);
  }
  EXPECT_EQ(s1.to_json(), s2.to_json());
  EXPECT_NE(s1.to_json(), s3.to_json());
  // The default rates actually schedule adversity.
  EXPECT_FALSE(s1.events().empty());
}

TEST(FaultScheduleTest, ExcursionsAndBlackoutsComeInPairs) {
  InjectorRates rates = default_injector_rates();
  const FaultSchedule s = FaultSchedule::generate(
      11, rates, TimePoint::origin(), Duration::seconds(600), 1e-5, 3);
  std::size_t starts = 0, ends = 0, on = 0, off = 0;
  for (const FaultEvent& e : s.events()) {
    switch (e.kind) {
      case FaultEvent::Kind::kDriftExcursion: ++starts; break;
      case FaultEvent::Kind::kDriftRestore: ++ends; break;
      case FaultEvent::Kind::kBlackoutStart: ++on; break;
      case FaultEvent::Kind::kBlackoutEnd: ++off; break;
      default: break;
    }
  }
  EXPECT_EQ(starts, ends);
  EXPECT_EQ(on, off);
}

TEST(FaultScheduleTest, HwFaultsSortedAndBounded) {
  // Hardware-only rates: the default InjectorRates arm nothing else.
  InjectorRates rates;
  rates.timed.hw_fault_mean_gap = Duration::seconds(10);
  const FaultSchedule s = FaultSchedule::generate(
      5, rates, TimePoint::origin(), Duration::seconds(1000), 1e-5, 3);
  EXPECT_GT(s.events().size(), 50u);
  TimePoint prev = TimePoint::origin();
  for (const FaultEvent& e : s.events()) {
    EXPECT_EQ(e.kind, FaultEvent::Kind::kHwFault);
    EXPECT_GE(e.at, prev);
    EXPECT_LT(e.at, TimePoint::origin() + Duration::seconds(1000));
    EXPECT_LT(e.target, 3u);
    prev = e.at;
  }
}

TEST(CampaignTest, MissionReplayIsExact) {
  // The acceptance property behind `chaos --replay`: re-running a mission
  // seed reproduces the mission bit-for-bit, adversity counters included.
  CampaignConfig config;
  config.mission = Duration::seconds(120);
  const MissionReport r1 = run_mission(config, 12345);
  const MissionReport r2 = run_mission(config, 12345);
  EXPECT_EQ(r1.ok, r2.ok);
  EXPECT_EQ(r1.injected_net, r2.injected_net);
  EXPECT_EQ(r1.late_deliveries, r2.late_deliveries);
  EXPECT_EQ(r1.write_retries, r2.write_retries);
  EXPECT_EQ(r1.torn_writes, r2.torn_writes);
  EXPECT_EQ(r1.latent_corruptions, r2.latent_corruptions);
  EXPECT_EQ(r1.corrupt_reads, r2.corrupt_reads);
  EXPECT_EQ(r1.hw_faults, r2.hw_faults);
  EXPECT_EQ(r1.monitor.violations(), r2.monitor.violations());
  EXPECT_EQ(r1.monitor.degradations(), r2.monitor.degradations());
}

TEST(CampaignTest, ShortCampaignRunsCleanUnderTheDefaultAdversary) {
  CampaignConfig config;
  config.seed = 1;
  config.reps = 3;
  config.mission = Duration::seconds(300);
  std::ostringstream out;
  const CampaignResult result = run_campaign(config, &out);
  EXPECT_EQ(result.failed, 0u) << out.str();
  EXPECT_EQ(result.oracle_violations, 0u) << out.str();
  // The adversary was actually on: detections happened and were degraded
  // around (a silent campaign would mean the injectors are disconnected).
  EXPECT_GT(result.detections, 0u);
  EXPECT_GT(result.degradations, 0u);
  ASSERT_EQ(result.missions.size(), 3u);
  for (const MissionReport& m : result.missions) {
    EXPECT_TRUE(m.ok);
    EXPECT_GT(m.injected_net, 0u) << "seed " << m.seed;
    EXPECT_GT(m.hw_faults, 0u) << "seed " << m.seed;
  }
}

TEST(CampaignTest, FailedMissionReportCarriesTheReplayableSchedule) {
  // Cripple the recoverability mechanism on purpose: the checkpoints omit
  // the unacked-send log (the Table 1 ablation) while the network drops a
  // tenth of all traffic, so dropped messages can never be re-sent and the
  // recoverability oracle fails. The report must be complete: seed,
  // failure descriptions, and the full schedule JSON.
  CampaignConfig config;
  config.seed = 5;
  config.reps = 1;
  config.mission = Duration::seconds(120);
  config.rates.net.drop_probability = 0.10;
  config.base.tb.omit_unacked_log = true;
  config.base.monitor.degrade = false;
  std::ostringstream out;
  const CampaignResult result = run_campaign(config, &out);
  ASSERT_EQ(result.failed, 1u)
      << "a mission that drops 10% of traffic without an unacked log "
         "cannot keep the recoverability oracle";
  const MissionReport& m = result.missions[0];
  EXPECT_FALSE(m.ok);
  EXPECT_FALSE(m.failures.empty());
  EXPECT_NE(m.schedule_json.find("\"seed\""), std::string::npos);
  EXPECT_NE(m.schedule_json.find("drop"), std::string::npos);
  // The campaign printed the replay instructions for the failing seed.
  EXPECT_NE(out.str().find("--replay"), std::string::npos);
  // And the printed seed replays to the same verdict.
  const MissionReport replay = run_mission(config, m.seed);
  EXPECT_FALSE(replay.ok);
  EXPECT_EQ(replay.failures.size(), m.failures.size());
}

// 600 s missions of `synergy chaos --duration 600` (seed 5104 missions 57
// and 182, seed 5105 mission 45) whose software error is detected while a
// crashed node waits for its restart. The restart used to install the
// epoch drawn at fault time, below the software recovery's, and P1sdw then
// dropped P2's re-sends as stale: the line lost messages P2 reflects
// sending ("... which neither reflects it nor can it be re-sent").
TEST(CampaignTest, RestartAfterASoftwareRecoveryKeepsTheResends) {
  const CampaignConfig config;  // coordinated, 600 s, default injectors
  for (std::uint64_t seed : {592437340179730271ULL, 14492788472785266155ULL,
                             1586715988752456996ULL}) {
    const MissionReport r = run_mission(config, seed);
    EXPECT_EQ(r.sw_recoveries, 1u) << seed;
    EXPECT_TRUE(r.ok) << seed;
  }
}

}  // namespace
}  // namespace synergy
