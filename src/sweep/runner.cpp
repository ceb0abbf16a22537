#include "sweep/runner.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
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

// fold fills the outcome rows by hand; every other row sums its counter.
static_assert(std::count_if(std::begin(kCellTallies), std::end(kCellTallies),
                            [](const CellTally& t) { return !t.from; }) == 5);

void CellTallies::accumulate(const CellTallies& other) {
  for (const CellTally& t : kCellTallies) this->*t.field += other.*t.field;
}

void CellStats::fold(std::size_t index, const MissionReport& report) {
  ++tallies.missions;
  if (report.ok) ++tallies.ok;
  tallies.oracle_violations += report.failures.size();
  tallies.detections += report.monitor.violations();
  tallies.degradations += report.monitor.degradations();
  for (const CellTally& t : kCellTallies) {
    if (t.from) tallies.*t.field += report.*t.from;
  }

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
