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
#include <utility>
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

/// A mission counter's line in the `--replay` dump.
enum class CounterGroup { kAdversity, kCheckpoint, kLanes, kMobile, kAbft };
/// How a counter folds across the missions of a campaign.
enum class CounterFold { kSum, kMax };

// Every MissionReport counter, declared once as X(field, group, fold) in
// struct order. The rows generate the fields, the `--replay` dump and the
// `chaos --json` totals: a new counter is one row plus its increment site
// in run_mission (and in perfbench's field-by-field replica of it).
//  - adversity: what the injectors actually did. Base-network drops are
//    split by cause (summing them gives the old conflated figure):
//    injected/probabilistic loss, no attached receiver, and in-flight
//    frames cancelled by a crash's drop_in_transit_to.
//  - checkpoint: records (volatile saves + stable commits), snapshot bytes
//    encoded across app/protocol/transport, stable bytes written.
//    ckpt_cache_misses counts those snapshot encodes (app encodes include
//    the TMR lanes' state copies); nothing caches them, so
//    ckpt_cache_hits is always 0 and is kept only because the perfbench
//    harness, a field-by-field replica of run_mission, fills it.
//  - lanes: redundant-lane fault adjudication (COAST injection model). At
//    mission end each injected lane fault is exactly one of masked (voted
//    out), detected (divergence / signature mismatch) or silent (wiped by
//    a rollback/resync before any vote saw it, or still pending).
//    lane_unprotected counts flips on a single-lane scheme's live state,
//    where detection is up to AT coverage; lane_rollbacks are
//    voter-triggered line rollbacks, lane_resyncs repairs from the
//    surviving majority, sig_mismatches CFCSS signature-chain detections.
//  - mobile (zero unless the mobile rates are armed): disconnection epochs
//    begun, messages lost to blackouts and to burst chains, handoffs
//    performed, writes abandoned mid-handoff, and the max per-node
//    unacked-log size.
//  - abft: acceptance-test outcomes summed over all nodes: runs on tainted
//    state (exposures), tainted runs that failed (detected) or passed
//    (missed, the blind spot), clean runs that failed (false alarms). On
//    ABFT workloads the verdicts are computed from the block checksums, so
//    at_detected / at_exposures is a *measured* coverage to compare
//    against the assumed `at.coverage`.
#define SYNERGY_MISSION_COUNTERS(X)                \
  X(injected_net, kAdversity, kSum)                \
  X(late_deliveries, kAdversity, kSum)             \
  X(net_dropped_loss, kAdversity, kSum)            \
  X(net_dropped_no_receiver, kAdversity, kSum)     \
  X(net_dropped_cancelled, kAdversity, kSum)       \
  X(write_retries, kAdversity, kSum)               \
  X(failed_writes, kAdversity, kSum)               \
  X(torn_writes, kAdversity, kSum)                 \
  X(latent_corruptions, kAdversity, kSum)          \
  X(corrupt_reads, kAdversity, kSum)               \
  X(hw_faults, kAdversity, kSum)                   \
  X(drift_excursions, kAdversity, kSum)            \
  X(missed_resyncs, kAdversity, kSum)              \
  X(sw_recoveries, kAdversity, kSum)               \
  X(ckpt_records, kCheckpoint, kSum)               \
  X(ckpt_bytes_encoded, kCheckpoint, kSum)         \
  X(ckpt_cache_hits, kCheckpoint, kSum)            \
  X(ckpt_cache_misses, kCheckpoint, kSum)          \
  X(stable_bytes_written, kCheckpoint, kSum)       \
  X(lane_injected, kLanes, kSum)                   \
  X(lane_masked, kLanes, kSum)                     \
  X(lane_detected, kLanes, kSum)                   \
  X(lane_silent, kLanes, kSum)                     \
  X(lane_unprotected, kLanes, kSum)                \
  X(lane_rollbacks, kLanes, kSum)                  \
  X(lane_resyncs, kLanes, kSum)                    \
  X(sig_mismatches, kLanes, kSum)                  \
  X(link_epochs, kMobile, kSum)                    \
  X(disconnect_drops, kMobile, kSum)               \
  X(burst_drops, kMobile, kSum)                    \
  X(handoffs, kMobile, kSum)                       \
  X(handoff_aborted_writes, kMobile, kSum)         \
  X(unacked_high_water, kMobile, kMax)             \
  X(at_exposures, kAbft, kSum)                     \
  X(at_detected, kAbft, kSum)                      \
  X(at_missed, kAbft, kSum)                        \
  X(at_false_alarms, kAbft, kSum)

struct MissionReport {
  std::uint64_t seed = 0;
  bool ok = true;
  std::vector<std::string> failures;

  SYNERGY_MISSION_COUNTERS(SYNERGY_DECLARE_COUNTER)

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

struct MissionCounter {
  const char* name;
  CounterGroup group;
  CounterFold fold;
  std::uint64_t MissionReport::*field;
};
#define SYNERGY_MISSION_COUNTER_ROW(field, group, fold)     \
  MissionCounter{#field, CounterGroup::group, CounterFold::fold, \
                 &MissionReport::field},
inline constexpr MissionCounter kMissionCounters[] = {
    SYNERGY_MISSION_COUNTERS(SYNERGY_MISSION_COUNTER_ROW)};
#undef SYNERGY_MISSION_COUNTER_ROW

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

/// The `--replay` dump: a `group: field=value ...` line per shown group,
/// then `monitor: violations=N degradations=N` and every monitor row. The
/// `chaos --json` totals below show the same groups: adversity and
/// checkpoint always; lanes on redundant schemes or once lane faults were
/// injected; mobile when its rates are armed or epochs ran; abft on ABFT
/// workloads.
std::string format_mission_counters(const CampaignConfig& config,
                                    const MissionReport& report);

/// The `chaos --json` totals: each shown mission row folded by its rule,
/// then each monitor row summed, keyed by field name.
std::vector<std::pair<std::string, std::uint64_t>> campaign_counter_totals(
    const CampaignConfig& config, const std::vector<MissionReport>& missions);

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
