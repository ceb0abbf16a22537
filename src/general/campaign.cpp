#include "general/campaign.hpp"

#include <chrono>
#include <sstream>

#include "analysis/checkers.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/pool.hpp"
#include "general/system.hpp"

namespace synergy {

const char* to_string(GeneralShape shape) {
  switch (shape) {
    case GeneralShape::kStar:
      return "star";
    case GeneralShape::kChain:
      return "chain";
  }
  return "?";
}

namespace {

Topology build_topology(const GeneralCampaignConfig& config) {
  Topology base = config.shape == GeneralShape::kStar
                      ? Topology::star(config.size)
                      : Topology::chain(config.size);
  std::vector<ComponentSpec> specs = base.components();
  for (auto& s : specs) {
    s.internal_rate = config.internal_rate;
    s.external_rate = config.external_rate;
  }
  return Topology(std::move(specs));
}

}  // namespace

GeneralMissionReport run_general_mission(const GeneralCampaignConfig& config,
                                         std::uint64_t mission_seed) {
  GeneralMissionReport report;
  report.seed = mission_seed;

  GeneralConfig sys_config;
  sys_config.seed = mission_seed;
  sys_config.tb.interval = config.tb_interval;
  sys_config.enable_trace = false;

  GeneralSystem system(build_topology(config), sys_config);
  report.processes = system.topology().process_count();

  const TimePoint end = TimePoint::origin() + config.mission;
  system.start(end);

  // The adversary draws from its own stream so workload arrivals stay
  // untouched by toggling injection on and off.
  Rng inj(mission_seed * 97 + 3);
  const Duration lo =
      Duration::from_seconds(config.mission.to_seconds() * 0.25);
  const Duration hi =
      Duration::from_seconds(config.mission.to_seconds() * 0.75);
  if (config.inject_hw) {
    const TimePoint at = TimePoint::origin() + inj.uniform(lo, hi);
    const auto victim = static_cast<std::uint32_t>(inj.uniform_int(
        0, static_cast<std::int64_t>(report.processes) - 1));
    system.schedule_hw_fault(at, ProcessId{victim});
  }
  if (config.inject_sw) {
    // Component 0 is the guarded (low-confidence) component in both
    // factory shapes.
    system.schedule_sw_error(TimePoint::origin() + inj.uniform(lo, hi), 0);
  }

  system.run();

  report.events = system.sim().events_executed();
  report.device_outputs = system.device_outputs();
  for (const Message& m : system.device_log()) {
    if (m.tainted) ++report.tainted_outputs;
  }
  for (std::uint32_t p = 0; p < report.processes; ++p) {
    report.stable_ckpts += system.tb(ProcessId{p}).checkpoints_taken();
  }
  report.hw_recoveries = system.hw_recoveries().size();
  if (system.sw_recovery().has_value()) {
    report.sw_recoveries = 1;
    report.sw_replayed = system.sw_recovery()->replayed;
  }

  const GlobalState line = system.stable_line_state();
  report.consistency_violations = check_consistency(line).size();
  report.recoverability_violations = check_recoverability(line).size();
  if (report.consistency_violations != 0) {
    report.failures.push_back(
        "recovery line inconsistent: " +
        std::to_string(report.consistency_violations) + " violation(s)");
  }
  if (report.recoverability_violations != 0) {
    report.failures.push_back(
        "recovery line unrecoverable: " +
        std::to_string(report.recoverability_violations) + " violation(s)");
  }
  report.ok = report.failures.empty();
  return report;
}

std::string format_general_mission(const GeneralCampaignConfig& config,
                                   std::size_t index,
                                   const GeneralMissionReport& report) {
  if (!config.verbose && report.ok) return "";
  std::ostringstream os;
  os << "mission " << index << " seed=" << report.seed
     << (report.ok ? " ok" : " FAILED") << " procs=" << report.processes
     << " events=" << report.events << " outputs=" << report.device_outputs
     << " tainted=" << report.tainted_outputs
     << " stable_ckpts=" << report.stable_ckpts
     << " hw=" << report.hw_recoveries << " sw=" << report.sw_recoveries
     << " violations="
     << report.consistency_violations + report.recoverability_violations
     << "\n";
  for (const auto& f : report.failures) {
    os << "  failure: " << f << "\n";
  }
  return os.str();
}

GeneralCampaignResult run_general_campaign(const GeneralCampaignConfig& config,
                                           std::ostream* out) {
  using Clock = std::chrono::steady_clock;
  SYNERGY_EXPECTS(config.reps > 0);
  GeneralCampaignResult result;

  const std::vector<std::uint64_t> seeds =
      derive_seeds(config.seed, config.reps);
  result.missions.resize(config.reps);

  const auto wall0 = Clock::now();
  result.jobs = run_ordered(
      config.reps, config.jobs,
      [&](std::size_t i) { return run_general_mission(config, seeds[i]); },
      [&](std::size_t i, GeneralMissionReport report) {
        if (out) {
          *out << format_general_mission(config, i, report) << std::flush;
        }
        result.missions[i] = std::move(report);
      });
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall0).count();

  for (const auto& m : result.missions) {
    if (!m.ok) ++result.failed;
    result.oracle_violations +=
        m.consistency_violations + m.recoverability_violations;
    result.events_total += m.events;
  }
  result.events_per_sec =
      result.wall_seconds > 0
          ? static_cast<double>(result.events_total) / result.wall_seconds
          : 0.0;

  if (out) {
    *out << "general campaign: " << to_string(config.shape) << "-"
         << config.size << ", " << config.reps << " mission(s), "
         << result.failed << " failed, oracle violations: "
         << result.oracle_violations << "\n";
    *out << "timing: jobs=" << result.jobs << " wall=" << result.wall_seconds
         << "s events/s=" << result.events_per_sec << "\n";
  }
  return result;
}

}  // namespace synergy
