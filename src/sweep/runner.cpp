#include "sweep/runner.hpp"

#include <chrono>
#include <utility>

#include "core/pool.hpp"

namespace synergy::sweep {

namespace {

// Priority streams for the two reservoirs; distinct salts keep them
// independent of each other and of the cell-seed/shard hashes.
constexpr std::uint64_t kRollbackSalt = 0x524F4C4C4241434Bull;  // "ROLLBACK"
constexpr std::uint64_t kBlockingSalt = 0x424C4F434B494E47ull;  // "BLOCKING"

std::uint64_t sample_priority(std::uint64_t cell_seed, std::uint64_t salt,
                              std::uint64_t ordinal) {
  return mix64((cell_seed ^ salt) + ordinal);
}

}  // namespace

void CellTallies::accumulate(const CellTallies& other) {
  missions += other.missions;
  ok += other.ok;
  oracle_violations += other.oracle_violations;
  detections += other.detections;
  degradations += other.degradations;
  hw_faults += other.hw_faults;
  sw_recoveries += other.sw_recoveries;
  injected_net += other.injected_net;
  at_exposures += other.at_exposures;
  at_detected += other.at_detected;
  at_missed += other.at_missed;
  at_false_alarms += other.at_false_alarms;
  lane_injected += other.lane_injected;
  lane_masked += other.lane_masked;
  lane_detected += other.lane_detected;
  lane_silent += other.lane_silent;
}

void CellStats::fold(std::size_t index, const MissionReport& report) {
  ++tallies.missions;
  if (report.ok) ++tallies.ok;
  tallies.oracle_violations += report.failures.size();
  tallies.detections += report.monitor.violations();
  tallies.degradations += report.monitor.degradations();
  tallies.hw_faults += report.hw_faults;
  tallies.sw_recoveries += report.sw_recoveries;
  tallies.injected_net += report.injected_net;
  tallies.at_exposures += report.at_exposures;
  tallies.at_detected += report.at_detected;
  tallies.at_missed += report.at_missed;
  tallies.at_false_alarms += report.at_false_alarms;
  tallies.lane_injected += report.lane_injected;
  tallies.lane_masked += report.lane_masked;
  tallies.lane_detected += report.lane_detected;
  tallies.lane_silent += report.lane_silent;

  blocking.add(report.blocking_seconds);
  blocking_samples.add(report.blocking_seconds,
                       sample_priority(cell.seed, kBlockingSalt, index),
                       cell.index, index);
  for (double d : report.rollback_seconds) {
    rollback.add(d);
    rollback_samples.add(
        d, sample_priority(cell.seed, kRollbackSalt, rollback_ordinal_),
        cell.index, rollback_ordinal_);
    ++rollback_ordinal_;
  }
}

double CellStats::dependability() const {
  if (tallies.missions == 0) return 1.0;
  return static_cast<double>(tallies.ok) /
         static_cast<double>(tallies.missions);
}

double CellStats::coverage_computed() const {
  if (tallies.at_exposures == 0) return 1.0;
  return static_cast<double>(tallies.at_detected) /
         static_cast<double>(tallies.at_exposures);
}

ShardResult run_sweep(const SweepConfig& config, std::ostream* progress) {
  using Clock = std::chrono::steady_clock;
  const auto wall0 = Clock::now();

  ShardResult result;
  result.config = config;
  const std::vector<SweepCell> grid = build_grid(config);
  result.cells_total = grid.size();

  for (const SweepCell& cell : grid) {
    if (cell_shard(config.seed, cell.index, config.shard_count) !=
        config.shard_index) {
      continue;
    }
    const auto cell0 = Clock::now();
    CellStats stats(cell);
    const CampaignConfig cc = cell_campaign_config(config, cell);

    // Mission seeds derive from the cell seed exactly as run_campaign
    // derives them from a campaign seed, and reports fold in mission-index
    // order whatever the worker count.
    const std::vector<std::uint64_t> seeds =
        derive_seeds(cell.seed, config.reps);
    run_ordered(
        config.reps, config.jobs,
        [&](std::size_t i) { return run_mission(cc, seeds[i]); },
        [&](std::size_t i, const MissionReport& report) {
          stats.fold(i, report);
        });

    result.missions_run += stats.tallies.missions;
    if (progress) {
      const double secs =
          std::chrono::duration<double>(Clock::now() - cell0).count();
      *progress << "cell " << cell.index << "/" << grid.size()
                << " scheme=" << to_string(cell.scheme)
                << " fault_scale=" << cell.fault_scale
                << " coverage=" << cell.coverage
                << " interval=" << cell.interval.to_seconds() << "s: "
                << stats.tallies.ok << "/" << stats.tallies.missions
                << " ok, " << stats.tallies.detections << " detections, "
                << secs << "s\n";
      progress->flush();
    }
    result.cells.push_back(std::move(stats));
  }

  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall0).count();
  return result;
}

}  // namespace synergy::sweep
