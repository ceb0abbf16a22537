// Golden values for the generalized engine, pinned from the engine as it
// stood when its views were still serialized into every protocol blob and
// decoded again for each audit.
//
// Missions: every GeneralMissionReport field of fixed seeds of star-64,
// chain-32 and star-256 (30 s missions, the `synergy general` defaults).
// Any change to the engine's output — event counts, device outputs,
// checkpoint counts, oracle verdicts — shows here first.
//
// Verdicts: a differential of the oracles' verdicts over >= 200 seeded
// missions against those of the old decoder. Each mission is audited every
// second, on its stable line (which holds the promoted anchors the TB
// engine copied) and on its live state. The rendered violations of all audits
// fold into one digest per topology, together with how many audits
// flagged and how many violations they found.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/checkers.hpp"
#include "checker_cases.hpp"
#include "common/rng.hpp"
#include "core/pool.hpp"
#include "general/campaign.hpp"
#include "general/system.hpp"

namespace synergy {
namespace {

std::string render(const GeneralMissionReport& r) {
  std::ostringstream out;
  out << "seed=" << r.seed << " ok=" << r.ok << " failures=[";
  for (const std::string& f : r.failures) out << f << ';';
  out << "] processes=" << r.processes << " events=" << r.events
      << " outputs=" << r.device_outputs << " tainted=" << r.tainted_outputs
      << " stable_ckpts=" << r.stable_ckpts << " hw=" << r.hw_recoveries
      << " sw=" << r.sw_recoveries << " replayed=" << r.sw_replayed
      << " consistency=" << r.consistency_violations
      << " recoverability=" << r.recoverability_violations;
  return out.str();
}

struct GoldenCase {
  GeneralShape shape;
  std::size_t size;
  std::size_t reps;
  std::vector<std::string> reports;
};

TEST(GeneralGolden, MissionReportsMatchPinnedValues) {
  const std::vector<GoldenCase> cases = {
      {GeneralShape::kStar,
       64,
       3,
       {"seed=12966619160104079557 ok=1 failures=[] processes=66 "
        "events=31021 outputs=559 tainted=0 stable_ckpts=159 hw=1 sw=1 "
        "replayed=0 consistency=0 recoverability=0",
        "seed=9600361134598540522 ok=1 failures=[] processes=66 "
        "events=26851 outputs=591 tainted=0 stable_ckpts=166 hw=1 sw=1 "
        "replayed=0 consistency=0 recoverability=0",
        "seed=10590380919521690900 ok=1 failures=[] processes=66 "
        "events=26966 outputs=582 tainted=0 stable_ckpts=155 hw=1 sw=1 "
        "replayed=0 consistency=0 recoverability=0"}},
      {GeneralShape::kChain,
       32,
       3,
       {"seed=12966619160104079557 ok=1 failures=[] processes=33 "
        "events=11017 outputs=299 tainted=0 stable_ckpts=81 hw=1 sw=1 "
        "replayed=3 consistency=0 recoverability=0",
        "seed=9600361134598540522 ok=1 failures=[] processes=33 "
        "events=11335 outputs=296 tainted=0 stable_ckpts=80 hw=1 sw=1 "
        "replayed=3 consistency=0 recoverability=0",
        "seed=10590380919521690900 ok=1 failures=[] processes=33 "
        "events=10616 outputs=280 tainted=0 stable_ckpts=77 hw=1 sw=1 "
        "replayed=1 consistency=0 recoverability=0"}},
      {GeneralShape::kStar,
       256,
       2,
       {"seed=12966619160104079557 ok=1 failures=[] processes=258 "
        "events=144823 outputs=2309 tainted=0 stable_ckpts=641 hw=1 sw=1 "
        "replayed=0 consistency=0 recoverability=0",
        "seed=9600361134598540522 ok=1 failures=[] processes=258 "
        "events=119847 outputs=2364 tainted=0 stable_ckpts=649 hw=1 sw=1 "
        "replayed=0 consistency=0 recoverability=0"}},
  };
  for (const GoldenCase& c : cases) {
    GeneralCampaignConfig config;
    config.shape = c.shape;
    config.size = c.size;
    config.mission = Duration::seconds(30);
    const std::vector<std::uint64_t> seeds = derive_seeds(1, c.reps);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const std::string got = render(run_general_mission(config, seeds[i]));
      EXPECT_EQ(got, c.reports.at(i)) << to_string(c.shape) << '-' << c.size
                                      << " mission " << i;
    }
  }
}

// ---- Oracle verdicts -------------------------------------------------------

/// FNV-1a over the rendered violations of every audit.
struct VerdictTally {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t audits = 0;
  std::uint64_t flagged = 0;
  std::uint64_t violations = 0;

  void add(const std::vector<Violation>& found) {
    ++audits;
    if (!found.empty()) ++flagged;
    violations += found.size();
    const std::string text = checker_cases::render(found) + "|";
    for (const char ch : text) {
      digest ^= static_cast<unsigned char>(ch);
      digest *= 0x100000001b3ULL;
    }
  }
  void audit(const GlobalState& state) {
    add(check_consistency(state));
    add(check_recoverability(state));
  }
  std::string summary() const {
    std::ostringstream out;
    out << std::hex << digest << std::dec << " audits=" << audits
        << " flagged=" << flagged << " violations=" << violations;
    return out.str();
  }
};

Topology with_campaign_rates(const Topology& base) {
  std::vector<ComponentSpec> specs = base.components();
  for (auto& s : specs) {
    s.internal_rate = 2.0;
    s.external_rate = 0.3;
  }
  return Topology(std::move(specs));
}

/// One mission with the seeded hardware crash and software error of
/// run_general_mission (30 s, both inside its middle half), audited every
/// second.
void audit_mission(const Topology& topology, std::uint64_t seed,
                   VerdictTally& tally) {
  GeneralConfig config;
  config.seed = seed;
  config.tb.interval = Duration::seconds(10);
  config.enable_trace = false;
  GeneralSystem system(with_campaign_rates(topology), config);
  const Duration mission = Duration::seconds(30);
  system.start(TimePoint::origin() + mission);
  Rng inj(seed * 97 + 3);
  const Duration lo = Duration::from_seconds(7.5);
  const Duration hi = Duration::from_seconds(22.5);
  const auto processes =
      static_cast<std::int64_t>(system.topology().process_count());
  const TimePoint hw_at = TimePoint::origin() + inj.uniform(lo, hi);
  system.schedule_hw_fault(
      hw_at, ProcessId{static_cast<std::uint32_t>(
                 inj.uniform_int(0, processes - 1))});
  system.schedule_sw_error(TimePoint::origin() + inj.uniform(lo, hi), 0);
  for (int s = 1; s <= 30; ++s) {
    system.run_until(TimePoint::origin() + Duration::seconds(s));
    tally.audit(system.stable_line_state());
    tally.audit(system.live_state());
  }
}

struct VerdictCase {
  const char* name;
  Topology topology;
  std::size_t seeds;
  const char* want;
};

TEST(GeneralVerdicts, MatchThePinnedDecoderOverManySeeds) {
  const std::vector<VerdictCase> cases = {
      {"star-4", Topology::star(4), 200,
       "17e1296031004d5d audits=24000 flagged=146 violations=765"},
      {"chain-5", Topology::chain(5), 40,
       "a6f7b36beefed875 audits=4800 flagged=62 violations=205"},
      {"dual_guarded", Topology::dual_guarded(), 40,
       "ddfc8a4df342121 audits=4800 flagged=8 violations=64"},
  };
  for (const VerdictCase& c : cases) {
    VerdictTally tally;
    for (const std::uint64_t seed : derive_seeds(1, c.seeds)) {
      audit_mission(c.topology, seed, tally);
    }
    EXPECT_EQ(tally.summary(), c.want) << c.name;
    EXPECT_GT(tally.flagged, 0u) << c.name;
  }
}

}  // namespace
}  // namespace synergy
