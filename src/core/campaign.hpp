// Chaos campaign driver: N seeded missions under the full injector stack.
//
// A mission is one System run with every adversary enabled at once —
// per-message network faults, per-write storage faults, and the timed
// event schedule (hardware crashes, clock-drift excursions, resync
// blackouts) generated from the mission seed. The assumption monitors are
// installed, so violations are detected and degraded around; the paper's
// oracles (consistency, recoverability, software recoverability) audit the
// recovery line periodically and at mission end, and the device log is
// checked for tainted output.
//
// Mission seeds derive deterministically from the campaign seed, and every
// injected fault draws from streams derived from the mission seed, so a
// failed mission is replayed exactly by re-running its printed seed. On
// failure the report carries the complete schedule JSON.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "coord/monitor.hpp"
#include "core/system.hpp"
#include "inject/fault_schedule.hpp"

namespace synergy {

/// Injector rates sized so a default 600 s mission sees every fault class
/// several times while staying inside what the hardened coordinated scheme
/// degrades around (the acceptance bar: zero oracle violations).
InjectorRates default_injector_rates();

struct CampaignConfig {
  std::uint64_t seed = 1;
  std::size_t reps = 50;
  Duration mission = Duration::seconds(600);
  Scheme scheme = Scheme::kCoordinated;
  InjectorRates rates;  ///< zero-initialized: call default_injector_rates()
  /// Base system configuration; seed/scheme/faults are overridden per
  /// mission. Leave defaulted for the standard chaos workload.
  SystemConfig base;
  Duration audit_interval = Duration::seconds(30);
  bool verbose = false;  ///< Per-mission summary lines.
  /// When non-empty, enable tracing and dump the mission's trace to this
  /// CSV path (replay diagnostics: `chaos --replay SEED --trace-csv f.csv`).
  /// Forces jobs = 1: every mission writes the same file.
  std::string trace_csv;
  /// Worker threads for the campaign fan-out; 0 = hardware concurrency.
  /// Mission seeds derive from the campaign seed up-front and each mission
  /// runs on a private System, so reports and per-mission output are
  /// bit-identical for every jobs value.
  std::size_t jobs = 1;

  CampaignConfig();  ///< Sets rates + a busy default workload.
};

struct MissionReport {
  std::uint64_t seed = 0;
  bool ok = true;
  std::vector<std::string> failures;

  // Adversity actually experienced.
  std::uint64_t injected_net = 0;
  std::uint64_t late_deliveries = 0;
  // Base-network drop tally, split by cause (summing them reproduces the
  // old conflated `dropped()` figure): probabilistic/injected frame loss,
  // deliveries with no attached receiver, and in-flight frames cancelled
  // by a crash's drop_in_transit_to.
  std::uint64_t net_dropped_loss = 0;
  std::uint64_t net_dropped_no_receiver = 0;
  std::uint64_t net_dropped_cancelled = 0;
  std::uint64_t write_retries = 0;
  std::uint64_t failed_writes = 0;
  std::uint64_t torn_writes = 0;
  std::uint64_t latent_corruptions = 0;
  std::uint64_t corrupt_reads = 0;
  std::uint64_t hw_faults = 0;
  std::uint64_t drift_excursions = 0;
  std::uint64_t missed_resyncs = 0;
  std::uint64_t sw_recoveries = 0;

  // Checkpoint-volume counters (allocation-lean pipeline observability):
  // how much state the mission actually checkpointed, and how often the
  // version-keyed snapshot caches spared a re-encode. Reported via the
  // CLI's --json output only; the per-mission text lines stay unchanged.
  std::uint64_t ckpt_records = 0;        ///< volatile saves + stable commits
  std::uint64_t ckpt_bytes_encoded = 0;  ///< snapshot bytes serialized
  std::uint64_t ckpt_cache_hits = 0;     ///< across app/protocol/transport
  std::uint64_t ckpt_cache_misses = 0;
  std::uint64_t stable_bytes_written = 0;

  // Redundant-lane fault adjudication (COAST injection model). At mission
  // end every injected lane fault is exactly one of masked (voted out),
  // detected (divergence / signature mismatch) or silent (wiped by a
  // rollback/resync before any vote saw it, or still pending).
  // `lane_unprotected` counts flips that landed on a single-lane scheme's
  // live state — the no-redundancy baseline where detection is up to AT
  // coverage.
  std::uint64_t lane_injected = 0;
  std::uint64_t lane_masked = 0;
  std::uint64_t lane_detected = 0;
  std::uint64_t lane_silent = 0;
  std::uint64_t lane_unprotected = 0;
  std::uint64_t lane_rollbacks = 0;  ///< voter-triggered recovery-line rollbacks
  std::uint64_t lane_resyncs = 0;    ///< lane repairs from surviving majority
  std::uint64_t sig_mismatches = 0;  ///< CFCSS signature-chain detections

  // Mobile/intermittent-connectivity family (zero unless the mobile rates
  // are armed).
  std::uint64_t link_epochs = 0;        ///< disconnection epochs begun
  std::uint64_t disconnect_drops = 0;   ///< messages lost to blackouts
  std::uint64_t burst_drops = 0;        ///< messages lost to burst chains
  std::uint64_t handoffs = 0;           ///< base-station handoffs performed
  std::uint64_t handoff_aborted_writes = 0;  ///< writes abandoned mid-handoff
  std::uint64_t unacked_high_water = 0;  ///< max per-node unacked-log size

  // Acceptance-test outcome tallies summed over all nodes. For ABFT
  // workloads the verdicts are computed from the block checksums, so
  //   computed coverage = at_detected / (at_detected + at_missed)
  // is a *measured* output to compare against the assumed `at.coverage`
  // input — the campaign's honest answer to "what does the AT really
  // catch here".
  std::uint64_t at_exposures = 0;    ///< AT runs on tainted state
  std::uint64_t at_detected = 0;     ///< tainted runs that failed the AT
  std::uint64_t at_missed = 0;       ///< tainted runs that passed (blind spot)
  std::uint64_t at_false_alarms = 0; ///< clean runs that failed

  // Distribution-feeding observables for the sweep driver (src/sweep).
  // Derived from simulated time only, so they share the determinism
  // contract with every counter above.
  /// Rollback distance of each hardware recovery this mission, in
  /// simulated seconds, in recovery order (the Figure-7 axis).
  std::vector<double> rollback_seconds;
  /// Total time-based-checkpointing blocking time summed over nodes, in
  /// simulated seconds (the tau(b) axis).
  double blocking_seconds = 0.0;

  MonitorStats monitor;

  /// Populated when the mission failed: the full replayable adversary.
  std::string schedule_json;

  /// Field-wise equality, including monitor stats and failure text — the
  /// determinism contract: `--jobs N` must reproduce `--jobs 1` exactly.
  bool operator==(const MissionReport&) const = default;
};

struct CampaignResult {
  std::vector<MissionReport> missions;  ///< Stable order: mission index.
  std::size_t failed = 0;
  std::uint64_t oracle_violations = 0;   ///< Across all audits (must be 0).
  std::uint64_t detections = 0;          ///< Monitor detections (expected >0).
  std::uint64_t degradations = 0;

  // Host-clock performance of the campaign itself. Everything above is
  // bit-identical across jobs values; these fields are not (they measure
  // the executor, not the missions).
  std::size_t jobs = 1;                ///< Workers actually used.
  double wall_seconds = 0;             ///< Campaign wall-clock.
  /// Sum of per-mission thread-CPU times (not wall: CPU time is immune to
  /// timesharing inflation when the workers oversubscribe the cores).
  double mission_seconds_total = 0;
  double missions_per_sec = 0;         ///< reps / wall_seconds.
  /// Effective parallelism: mission_seconds_total / wall_seconds (≈1 when
  /// jobs = 1 or on one core; approaches jobs on enough real cores).
  double speedup = 1;
};

/// The per-mission text block run_campaign emits for mission `index`
/// (summary line when verbose or failed, plus failure details) — exposed
/// so tests can assert output equality across jobs values. Returns ""
/// when this mission prints nothing.
std::string format_mission_report(const CampaignConfig& config,
                                  std::size_t index,
                                  const MissionReport& report);

/// Run one mission with the given seed. Exposed for deterministic replay
/// (`synergy chaos --replay <seed>`).
MissionReport run_mission(const CampaignConfig& config,
                          std::uint64_t mission_seed);

/// Run the whole campaign, fanning missions out over config.jobs workers.
/// Mission seeds are all derived from config.seed before any mission runs,
/// and reports are stored and their text emitted in mission-index order,
/// so everything written to `out` except the trailing `timing:` line is
/// byte-identical for every jobs value. Prints a summary
/// (and failing seeds + schedule JSON) to `out` when non-null.
CampaignResult run_campaign(const CampaignConfig& config, std::ostream* out);

}  // namespace synergy
