#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "analysis/checkers.hpp"
#include "core/pool.hpp"
#include "trace/export.hpp"

namespace synergy {

InjectorRates default_injector_rates() {
  InjectorRates r;
  r.net.drop_probability = 0.01;
  r.net.duplicate_probability = 0.01;
  r.net.reorder_probability = 0.02;
  r.net.delay_probability = 0.002;
  r.net.bitflip_probability = 0.005;
  r.storage.write_error_probability = 0.05;
  r.storage.torn_write_probability = 0.02;
  r.storage.latent_corruption_probability = 0.01;
  r.timed.hw_fault_mean_gap = Duration::seconds(150);
  r.timed.drift_excursion_mean_gap = Duration::seconds(200);
  r.timed.drift_excursion_factor = 50.0;
  r.timed.drift_excursion_duration = Duration::seconds(20);
  r.timed.resync_blackout_mean_gap = Duration::seconds(250);
  r.timed.resync_blackout_duration = Duration::seconds(30);
  return r;
}

CampaignConfig::CampaignConfig() {
  rates = default_injector_rates();
  // The chaos-soak workload: busy enough that every fault class lands on
  // in-flight protocol activity.
  base.workload.p1_internal_rate = 3.0;
  base.workload.p2_internal_rate = 3.0;
  base.workload.p1_external_rate = 0.3;
  base.workload.p2_external_rate = 0.3;
  base.workload.step_rate = 1.0;
  base.sw_fault.activation_per_send = 0.001;
  base.tb.interval = Duration::seconds(10);
  base.repair_latency = Duration::seconds(2);
}

MissionReport run_mission(const CampaignConfig& config,
                          std::uint64_t mission_seed) {
  MissionReport report;
  report.seed = mission_seed;

  SystemConfig sc = config.base;
  sc.scheme = config.scheme;
  sc.seed = mission_seed;
  sc.net_faults = config.rates.net;
  sc.sstore.faults = config.rates.storage;
  // Mobile missions drive link state through the FaultyNetwork decorator
  // even when every per-message rate is zero.
  sc.enable_link_faults = config.rates.mobile.any();
  sc.enable_monitor = true;
  sc.harden_recovery = true;
  if (!config.trace_csv.empty()) sc.enable_trace = true;

  System system(sc);
  const TimePoint start = TimePoint::origin();
  const FaultSchedule schedule = FaultSchedule::generate(
      mission_seed, config.rates, start, config.mission, sc.clock.rho,
      kNumCanonicalProcesses);

  for (const FaultEvent& ev : schedule.events()) {
    switch (ev.kind) {
      case FaultEvent::Kind::kHwFault:
        if (sc.scheme != Scheme::kMdcdOnly) {
          system.schedule_hw_fault(ev.at, NodeId{ev.target});
        }
        break;
      case FaultEvent::Kind::kDriftExcursion:
        system.sim().schedule_at(ev.at, [&system, ev] {
          system.clocks().inject_drift_excursion(ProcessId{ev.target},
                                                 ev.drift);
        });
        break;
      case FaultEvent::Kind::kDriftRestore:
        system.sim().schedule_at(ev.at, [&system, ev] {
          system.clocks().end_drift_excursion(ProcessId{ev.target});
        });
        break;
      case FaultEvent::Kind::kBlackoutStart:
        system.sim().schedule_at(ev.at, [&system] {
          system.clocks().suppress_resyncs(true);
        });
        break;
      case FaultEvent::Kind::kBlackoutEnd:
        system.sim().schedule_at(ev.at, [&system] {
          system.clocks().suppress_resyncs(false);
        });
        break;
      case FaultEvent::Kind::kLaneFlip:
      case FaultEvent::Kind::kSigFault:
        system.schedule_lane_fault(
            ev.at, ProcessId{ev.target % kNumCanonicalProcesses}, ev.lane,
            ev.kind == FaultEvent::Kind::kSigFault, ev.noise);
        break;
      case FaultEvent::Kind::kLinkDown:
        system.schedule_link_down(
            ev.at, ProcessId{ev.target % kNumCanonicalProcesses},
            (ev.noise & kLinkRx) != 0, (ev.noise & kLinkTx) != 0,
            (ev.noise & kLinkFull) != 0, ev.drift);
        break;
      case FaultEvent::Kind::kLinkUp:
        system.schedule_link_up(ev.at,
                                ProcessId{ev.target % kNumCanonicalProcesses});
        break;
      case FaultEvent::Kind::kHandoff:
        // A handoff re-homes the stable store; storeless schemes have
        // nothing to migrate.
        if (sc.scheme != Scheme::kMdcdOnly) {
          system.schedule_handoff(
              ev.at, ProcessId{ev.target % kNumCanonicalProcesses});
        }
        break;
    }
  }

  // Periodic recovery-line audits: the paper's theorems as standing
  // invariants, checked while the adversary is mid-swing.
  auto audit = [&report, &system](const char* when) {
    const GlobalState line = system.stable_line_state();
    for (const Violation& v : check_all(line)) {
      report.failures.push_back(std::string(when) + " at " +
                                std::to_string(system.sim().now().to_seconds()) +
                                "s: " + v.describe());
    }
  };
  for (TimePoint t = start + config.audit_interval;
       t < start + config.mission; t += config.audit_interval) {
    system.sim().schedule_at(t, [&audit] { audit("audit"); });
  }

  system.start(start + config.mission);
  system.run();
  audit("final");

  // With a perfect acceptance test no erroneous value may ever reach the
  // device, no matter what the injectors did. ABFT workloads compute their
  // verdicts from the block checksums — their coverage is measured, never
  // promised — so the perfect-AT oracle only applies to the registers
  // workload.
  if (sc.workload.kind == WorkloadKind::kRegisters && sc.at.coverage >= 1.0 &&
      sc.at.false_alarm <= 0.0) {
    for (const auto& e : system.device().entries) {
      if (e.tainted) {
        report.failures.push_back("tainted external output at " +
                                  std::to_string(e.at.to_seconds()) + "s");
        break;
      }
    }
  }

  if (FaultyNetwork* fn = system.faulty_net()) {
    report.injected_net = fn->injected_total();
    report.link_epochs = fn->link_epochs();
    report.disconnect_drops = fn->disconnect_drops();
    report.burst_drops = fn->burst_drops();
  }
  report.handoffs = system.handoffs();
  report.handoff_aborted_writes = system.handoff_aborted_writes();
  report.late_deliveries = system.net().late_deliveries();
  report.net_dropped_loss = system.net().dropped_loss();
  report.net_dropped_no_receiver = system.net().dropped_no_receiver();
  report.net_dropped_cancelled = system.net().dropped_cancelled();
  for (std::uint32_t p = 0; p < kNumCanonicalProcesses; ++p) {
    ProcessNode& n = system.node(ProcessId{p});
    report.unacked_high_water =
        std::max<std::uint64_t>(report.unacked_high_water,
                                n.endpoint().unacked_high_water());
    const AcceptanceTest& at = n.at();
    const std::uint64_t detected = at.failures() - at.false_alarms();
    report.at_detected += detected;
    report.at_missed += at.missed_detections();
    report.at_exposures += detected + at.missed_detections();
    report.at_false_alarms += at.false_alarms();
    report.ckpt_records += n.vstore().saves();
    report.ckpt_bytes_encoded += n.app().snapshot_bytes_encoded() +
                                 n.engine().protocol_bytes_encoded() +
                                 n.endpoint().snapshot_bytes_encoded();
    report.ckpt_cache_misses += n.app().snapshot_cache_misses() +
                                n.engine().protocol_cache_misses() +
                                n.endpoint().snapshot_cache_misses();
    if (!n.has_stable_storage()) continue;
    report.ckpt_records += n.sstore().commits();
    report.stable_bytes_written += n.sstore().bytes_written();
    report.write_retries += n.sstore().write_retries();
    report.failed_writes += n.sstore().failed_writes();
    report.torn_writes += n.sstore().torn_writes();
    report.latent_corruptions += n.sstore().latent_corruptions();
    report.corrupt_reads += n.sstore().corrupt_reads();
  }
  report.hw_faults = system.hw_manager().faults_injected();
  report.drift_excursions = system.clocks().drift_excursions();
  report.missed_resyncs = system.clocks().missed_resyncs();
  report.sw_recoveries = system.sw_recovery().has_value() ? 1 : 0;
  const LaneStats lanes = system.lane_stats();
  report.lane_injected = lanes.injected + system.unprotected_flips();
  report.lane_masked = lanes.masked;
  report.lane_detected = lanes.detected;
  report.lane_silent = lanes.silent;
  report.lane_unprotected = system.unprotected_flips();
  report.lane_rollbacks = system.lane_rollbacks();
  report.lane_resyncs = lanes.resyncs;
  report.sig_mismatches = lanes.sig_mismatches;
  for (const HwRecoveryStats& r : system.hw_recoveries()) {
    for (const Duration& d : r.rollback_distance) {
      report.rollback_seconds.push_back(d.to_seconds());
    }
  }
  for (std::uint32_t p = 0; p < kNumCanonicalProcesses; ++p) {
    if (const TbEngine* tb = system.node(ProcessId{p}).tb()) {
      report.blocking_seconds += tb->total_blocking().to_seconds();
    }
  }
  if (AssumptionMonitor* m = system.monitor()) report.monitor = m->stats();

  if (!config.trace_csv.empty()) {
    std::ofstream out(config.trace_csv);
    write_trace_csv(system.trace(), out);
  }

  report.ok = report.failures.empty();
  if (!report.ok) report.schedule_json = schedule.to_json();
  return report;
}

namespace {

/// CPU time consumed by the calling thread. Immune to timesharing: on an
/// oversubscribed machine a mission's wall time inflates while its CPU
/// time does not, so Σ mission CPU / campaign wall reports real
/// parallelism (~1 on one core) instead of flattering it.
double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

/// at_detected / at_exposures; 1 when the AT never ran on tainted state.
double computed_coverage(const MissionReport& report) {
  return report.at_exposures > 0
             ? static_cast<double>(report.at_detected) /
                   static_cast<double>(report.at_exposures)
             : 1.0;
}

/// Whether `group` is shown for `report` (one mission, or the total).
bool counter_group_shown(const CampaignConfig& config,
                         const MissionReport& report, CounterGroup group) {
  switch (group) {
    case CounterGroup::kLanes:
      return scheme_lane_count(config.scheme) > 1 || report.lane_injected > 0;
    case CounterGroup::kMobile:
      return config.rates.mobile.any() || report.link_epochs > 0;
    case CounterGroup::kAbft:
      return config.base.workload.kind == WorkloadKind::kAbft;
    default:
      return true;
  }
}

}  // namespace

std::string format_mission_report(const CampaignConfig& config,
                                  std::size_t index,
                                  const MissionReport& report) {
  std::ostringstream out;
  if (config.verbose || !report.ok) {
    out << "mission " << index << " seed=" << report.seed
        << (report.ok ? " ok" : " FAIL") << " net=" << report.injected_net
        << " late=" << report.late_deliveries
        << " drop_loss=" << report.net_dropped_loss
        << " drop_norecv=" << report.net_dropped_no_receiver
        << " drop_cancel=" << report.net_dropped_cancelled
        << " retries=" << report.write_retries
        << " torn=" << report.torn_writes
        << " latent=" << report.latent_corruptions
        << " hw=" << report.hw_faults
        << " drift=" << report.drift_excursions
        << " missed_resync=" << report.missed_resyncs
        << " detect=" << report.monitor.violations()
        << " degrade=" << report.monitor.degradations();
    // Lane adjudication only exists on redundant schemes; single-lane
    // campaign output stays byte-identical to the pre-lane format.
    if (scheme_lane_count(config.scheme) > 1) {
      out << " lane_inj=" << report.lane_injected
          << " masked=" << report.lane_masked
          << " detected=" << report.lane_detected
          << " silent=" << report.lane_silent
          << " lane_rb=" << report.lane_rollbacks;
    }
    // Mobile-family counters only when the family is armed; pre-mobile
    // campaigns keep their lines byte-identical.
    if (config.rates.mobile.any()) {
      out << " link_epochs=" << report.link_epochs
          << " disc_drop=" << report.disconnect_drops
          << " burst_drop=" << report.burst_drops
          << " handoffs=" << report.handoffs
          << " handoff_aborts=" << report.handoff_aborted_writes
          << " unacked_hw=" << report.unacked_high_water
          << " deferred=" << report.monitor.disconnect_deferrals;
    }
    // Assumed-vs-computed coverage only for ABFT workloads, where the AT
    // verdicts are measured from the block checksums.
    if (config.base.workload.kind == WorkloadKind::kAbft) {
      out << " at_exposed=" << report.at_exposures
          << " at_detect=" << report.at_detected
          << " at_miss=" << report.at_missed;
      out.setf(std::ios::fixed);
      out.precision(3);
      out << " cov_computed=" << computed_coverage(report)
          << " cov_assumed=" << config.base.at.coverage;
      out.unsetf(std::ios::fixed);
    }
    out << "\n";
  }
  if (!report.ok) {
    for (const auto& f : report.failures) out << "  " << f << "\n";
    // The replay command must reproduce the mission *configuration* too,
    // not just the seed: spell out the non-default knobs.
    out << "  replay: synergy chaos --replay " << report.seed;
    if (config.scheme != Scheme::kCoordinated) {
      out << " --scheme " << to_string(config.scheme);
    }
    if (config.mission != Duration::seconds(600)) {
      out << " --duration " << config.mission.to_seconds();
    }
    out << " (plus any non-default injector flags)\n";
    out << "  schedule: " << report.schedule_json << "\n";
  }
  return out.str();
}

std::string format_mission_counters(const CampaignConfig& config,
                                    const MissionReport& report) {
  static constexpr const char* kGroupNames[] = {"adversity", "checkpoint",
                                                "lanes", "mobile", "abft"};
  static_assert(std::size(kGroupNames) ==
                static_cast<std::size_t>(CounterGroup::kAbft) + 1);
  std::ostringstream out;
  for (std::size_t g = 0; g < std::size(kGroupNames); ++g) {
    const auto group = static_cast<CounterGroup>(g);
    if (!counter_group_shown(config, report, group)) continue;
    out << kGroupNames[g] << ":";
    for (const MissionCounter& c : kMissionCounters) {
      if (c.group == group) out << ' ' << c.name << '=' << report.*c.field;
    }
    if (group == CounterGroup::kAbft) {
      out.setf(std::ios::fixed);
      out.precision(3);
      out << " cov_computed=" << computed_coverage(report)
          << " cov_assumed=" << config.base.at.coverage;
    }
    out << '\n';
  }
  out << "monitor: violations=" << report.monitor.violations()
      << " degradations=" << report.monitor.degradations();
  for (const MonitorCounter& c : kMonitorCounters) {
    out << ' ' << c.name << '=' << report.monitor.*c.field;
  }
  out << '\n';
  return out.str();
}

std::vector<std::pair<std::string, std::uint64_t>> campaign_counter_totals(
    const CampaignConfig& config, const std::vector<MissionReport>& missions) {
  MissionReport total;
  for (const MissionReport& r : missions) {
    for (const MissionCounter& c : kMissionCounters) {
      total.*c.field = c.fold == CounterFold::kMax
                           ? std::max(total.*c.field, r.*c.field)
                           : total.*c.field + r.*c.field;
    }
    for (const MonitorCounter& c : kMonitorCounters) {
      total.monitor.*c.field += r.monitor.*c.field;
    }
  }
  std::vector<std::pair<std::string, std::uint64_t>> totals;
  for (const MissionCounter& c : kMissionCounters) {
    if (counter_group_shown(config, total, c.group)) {
      totals.emplace_back(c.name, total.*c.field);
    }
  }
  for (const MonitorCounter& c : kMonitorCounters) {
    totals.emplace_back(c.name, total.monitor.*c.field);
  }
  return totals;
}

CampaignResult run_campaign(const CampaignConfig& config, std::ostream* out) {
  using Clock = std::chrono::steady_clock;
  CampaignResult result;

  // Every mission would write the same trace file; replay diagnostics are
  // single-mission anyway.
  const std::size_t jobs = config.trace_csv.empty() ? config.jobs : 1;
  const std::vector<std::uint64_t> seeds =
      derive_seeds(config.seed, config.reps);
  result.missions.resize(config.reps);
  std::vector<double> mission_secs(config.reps, 0.0);

  const auto wall0 = Clock::now();
  result.jobs = run_ordered(
      config.reps, jobs,
      [&](std::size_t i) {
        const double cpu0 = thread_cpu_seconds();
        MissionReport report = run_mission(config, seeds[i]);
        mission_secs[i] = thread_cpu_seconds() - cpu0;
        return report;
      },
      [&](std::size_t i, MissionReport report) {
        if (out) {
          *out << format_mission_report(config, i, report) << std::flush;
        }
        result.missions[i] = std::move(report);
      });
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall0).count();

  for (const MissionReport& report : result.missions) {
    result.oracle_violations += report.failures.size();
    result.detections += report.monitor.violations();
    result.degradations += report.monitor.degradations();
    if (!report.ok) ++result.failed;
  }
  for (double s : mission_secs) result.mission_seconds_total += s;
  if (result.wall_seconds > 0) {
    result.missions_per_sec =
        static_cast<double>(config.reps) / result.wall_seconds;
    result.speedup = result.mission_seconds_total / result.wall_seconds;
  }

  if (out) {
    *out << "campaign: " << (config.reps - result.failed) << "/" << config.reps
         << " missions clean, " << result.oracle_violations
         << " oracle violations, " << result.detections
         << " assumption violations detected, " << result.degradations
         << " degradations applied\n";
    // Host-clock, not simulation state: the one line that may differ
    // between jobs values.
    std::ostringstream timing;
    timing.setf(std::ios::fixed);
    timing.precision(2);
    timing << "timing: jobs=" << result.jobs << " wall=" << result.wall_seconds
           << "s throughput=" << result.missions_per_sec
           << " missions/s speedup=" << result.speedup << "x\n";
    *out << timing.str();
  }
  return result;
}

}  // namespace synergy
