// Sharded campaigns for the generalized topology engine.
//
// A general mission is one GeneralSystem run of a parameterized topology
// (star or chain, any size) under Poisson workloads, with one seeded
// hardware fault and one seeded software error, audited at mission end by
// the paper's oracles (recovery-line consistency + recoverability) over
// both the stable line and the live state.
//
// The campaign fans missions out through the shared in-order executor
// (core/pool.hpp) under the same determinism contract as the chaos
// campaign (src/core/campaign.hpp): mission seeds all derive from the
// campaign seed before any mission runs, and reports are stored and their
// text published in mission-index order — everything except the trailing
// `timing:` line is byte-identical for every --jobs value.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace synergy {

enum class GeneralShape : std::uint8_t { kStar, kChain };

const char* to_string(GeneralShape shape);

struct GeneralCampaignConfig {
  std::uint64_t seed = 1;
  std::size_t reps = 8;
  GeneralShape shape = GeneralShape::kStar;
  /// Star: leaf count; chain: total length (>= 2).
  std::size_t size = 64;
  Duration mission = Duration::seconds(60);
  double internal_rate = 2.0;  ///< per-component internal sends / s
  double external_rate = 0.3;  ///< per-component external sends / s
  Duration tb_interval = Duration::seconds(10);
  bool inject_hw = true;  ///< one seeded node crash per mission
  bool inject_sw = true;  ///< one seeded design-fault activation per mission
  bool verbose = false;   ///< per-mission summary lines
  /// Worker threads; 0 = hardware concurrency. Same bit-identity contract
  /// as CampaignConfig::jobs.
  std::size_t jobs = 1;
};

struct GeneralMissionReport {
  std::uint64_t seed = 0;
  bool ok = true;
  std::vector<std::string> failures;

  std::size_t processes = 0;
  std::uint64_t events = 0;  ///< simulator events executed
  std::uint64_t device_outputs = 0;
  std::uint64_t tainted_outputs = 0;
  std::uint64_t stable_ckpts = 0;
  std::uint64_t hw_recoveries = 0;
  std::uint64_t sw_recoveries = 0;
  std::uint64_t sw_replayed = 0;  ///< shadow-takeover log replays
  std::uint64_t consistency_violations = 0;
  std::uint64_t recoverability_violations = 0;

  /// Field-wise equality — the determinism contract: `--jobs N` must
  /// reproduce `--jobs 1` exactly.
  bool operator==(const GeneralMissionReport&) const = default;
};

struct GeneralCampaignResult {
  std::vector<GeneralMissionReport> missions;  ///< mission-index order
  std::size_t failed = 0;
  std::uint64_t oracle_violations = 0;  ///< across all missions (must be 0)
  std::uint64_t events_total = 0;

  // Executor performance — NOT part of the determinism contract.
  std::size_t jobs = 1;
  double wall_seconds = 0;
  double events_per_sec = 0;
};

/// The per-mission text block run_general_campaign emits for mission
/// `index` — exposed so tests can assert output equality across jobs
/// values. Returns "" when this mission prints nothing.
std::string format_general_mission(const GeneralCampaignConfig& config,
                                   std::size_t index,
                                   const GeneralMissionReport& report);

/// Run one mission with the given seed (deterministic replay).
GeneralMissionReport run_general_mission(const GeneralCampaignConfig& config,
                                         std::uint64_t mission_seed);

/// Run the whole campaign over config.jobs workers. Everything written to
/// `out` except the trailing `timing:` line is byte-identical for every
/// jobs value.
GeneralCampaignResult run_general_campaign(const GeneralCampaignConfig& config,
                                           std::ostream* out);

}  // namespace synergy
