// End-to-end contracts of the sweep driver (src/sweep): deterministic
// grid construction, seed-stable shard partitioning, fragment round-trip
// through JSON, and the headline guarantee — merging shard fragments
// reproduces the single-process full-grid document byte-for-byte.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/fragment.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"

using namespace synergy;
using namespace synergy::sweep;

namespace {

/// A small but non-trivial sweep: 2 schemes x 2 fault scales x 1 coverage
/// x 2 intervals = 8 cells, a few short missions each. Fast enough for
/// the tier-1 suite, busy enough that rollback/blocking reservoirs fill.
SweepConfig small_config() {
  SweepConfig config;
  config.seed = 11;
  config.reps = 3;
  config.mission = Duration::seconds(20);
  config.axes.schemes = {Scheme::kCoordinated, Scheme::kMdcdOnly};
  config.axes.fault_scales = {1.0, 2.0};
  config.axes.coverages = {1.0};
  config.axes.intervals_s = {10.0, 20.0};
  return config;
}

}  // namespace

TEST(SweepGrid, CanonicalOrderAndStableSeeds) {
  const SweepConfig config = small_config();
  const std::vector<SweepCell> grid = build_grid(config);
  ASSERT_EQ(grid.size(), grid_size(config.axes));
  ASSERT_EQ(grid.size(), 8u);

  // Nesting order: scheme-major, then fault scale, coverage, interval.
  EXPECT_EQ(grid[0].scheme, Scheme::kCoordinated);
  EXPECT_DOUBLE_EQ(grid[0].fault_scale, 1.0);
  EXPECT_DOUBLE_EQ(grid[0].interval.to_seconds(), 10.0);
  EXPECT_EQ(grid[1].interval.to_seconds(), 20.0);
  EXPECT_DOUBLE_EQ(grid[2].fault_scale, 2.0);
  EXPECT_EQ(grid[4].scheme, Scheme::kMdcdOnly);

  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].index, i);
    EXPECT_EQ(grid[i].seed, cell_seed(config.seed, i));
  }
  // Seeds are pairwise distinct and sweep-seed dependent.
  std::set<std::uint64_t> seeds;
  for (const SweepCell& c : grid) seeds.insert(c.seed);
  EXPECT_EQ(seeds.size(), grid.size());
  EXPECT_NE(cell_seed(11, 0), cell_seed(12, 0));
}

TEST(SweepGrid, ShardPartitionCoversEveryCellExactlyOnce) {
  // The shard hash is a pure function of (sweep seed, cell index): for
  // any shard count, every cell lands in exactly one shard, and the
  // assignment is stable across calls.
  for (std::uint32_t shards : {1u, 2u, 3u, 5u, 8u}) {
    std::size_t covered = 0;
    for (std::size_t index = 0; index < 64; ++index) {
      const std::uint32_t s = cell_shard(11, index, shards);
      ASSERT_LT(s, shards);
      EXPECT_EQ(s, cell_shard(11, index, shards));
      ++covered;
    }
    EXPECT_EQ(covered, 64u);
  }
  // Different sweep seeds shuffle the partition (seed-stability, not a
  // fixed index stripe).
  bool any_differs = false;
  for (std::size_t index = 0; index < 64 && !any_differs; ++index) {
    any_differs = cell_shard(11, index, 3) != cell_shard(99, index, 3);
  }
  EXPECT_TRUE(any_differs);
}

TEST(SweepGrid, CampaignConfigAppliesCellAxes) {
  const SweepConfig config = small_config();
  const std::vector<SweepCell> grid = build_grid(config);
  const SweepCell& cell = grid[6];  // mdcd_only, scale 2, interval 10
  const CampaignConfig cc = cell_campaign_config(config, cell);
  EXPECT_EQ(cc.seed, cell.seed);
  EXPECT_EQ(cc.reps, config.reps);
  EXPECT_EQ(cc.scheme, Scheme::kMdcdOnly);
  EXPECT_EQ(cc.base.tb.interval, cell.interval);
  EXPECT_DOUBLE_EQ(cc.base.at.coverage, cell.coverage);
  // Fault scale 2: per-message probabilities double (clamped), timed mean
  // gaps halve.
  const InjectorRates def = default_injector_rates();
  EXPECT_DOUBLE_EQ(cc.rates.net.drop_probability,
                   def.net.drop_probability * 2.0);
  EXPECT_EQ(cc.rates.timed.hw_fault_mean_gap.to_seconds(),
            def.timed.hw_fault_mean_gap.to_seconds() / 2.0);
}

TEST(SweepRunner, ShardsPartitionTheGridAndMergeByteIdentical) {
  // The tentpole contract: run the full grid in one process, run the
  // same sweep as three independent shard fragments, merge the fragments
  // — the two JSON documents must be byte-identical. (The CI sweep-merge
  // job re-checks this cross-machine; this is the in-tree guard.)
  const SweepConfig config = small_config();
  const ShardResult full = run_sweep(config, nullptr);
  ASSERT_EQ(full.cells.size(), 8u);
  EXPECT_EQ(full.missions_run, 8u * config.reps);

  std::vector<ShardResult> fragments;
  std::size_t sharded_cells = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    SweepConfig shard = config;
    shard.shard_index = i;
    shard.shard_count = 3;
    fragments.push_back(run_sweep(shard, nullptr));
    sharded_cells += fragments.back().cells.size();
  }
  EXPECT_EQ(sharded_cells, 8u);

  // Merge in an adversarial order: permuted fragments, same bytes.
  std::vector<ShardResult> permuted = {fragments[2], fragments[0],
                                       fragments[1]};
  const ShardResult merged = merge_fragments(permuted);
  EXPECT_EQ(to_json(merged), to_json(full));
}

TEST(SweepRunner, JobsFanOutDoesNotChangeTheBytes)
{
  // In-cell parallelism must be invisible in the output (the reorder
  // buffer folds reports in mission-index order).
  SweepConfig config = small_config();
  config.axes.schemes = {Scheme::kCoordinated};
  config.axes.intervals_s = {10.0};
  config.reps = 6;
  const ShardResult serial = run_sweep(config, nullptr);
  config.jobs = 4;
  const ShardResult parallel = run_sweep(config, nullptr);
  EXPECT_EQ(to_json(parallel), to_json(serial));
}

TEST(SweepFragment, JsonRoundTripIsExact) {
  // Fragment -> JSON -> parse -> JSON must be a fixed point: %.17g
  // round-trips the moment state, u64 tokens round-trip the priorities.
  SweepConfig config = small_config();
  config.shard_index = 1;
  config.shard_count = 3;
  const ShardResult shard = run_sweep(config, nullptr);
  const std::string json = to_json(shard);
  const ShardResult reloaded = parse_fragment(json);
  EXPECT_EQ(to_json(reloaded), json);
  EXPECT_EQ(reloaded.missions_run, shard.missions_run);
  EXPECT_EQ(reloaded.cells.size(), shard.cells.size());
}

TEST(SweepFragment, ParseRejectsMalformedDocuments) {
  EXPECT_THROW(parse_fragment("not json"), std::runtime_error);
  EXPECT_THROW(parse_fragment("{}"), std::runtime_error);
  EXPECT_THROW(parse_fragment(R"({"schema": "something-else"})"),
               std::runtime_error);

  // One edited value in a valid fragment: each must be an error, never a
  // wrapped or truncated integer, an overflowing double-to-integer cast or
  // unbounded recursion.
  const std::string valid = to_json(run_sweep(small_config(), nullptr));
  EXPECT_NO_THROW(parse_fragment(valid));
  const auto edited = [&valid](const std::string& from, const std::string& to) {
    const std::size_t at = valid.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    std::string doc = valid;
    if (at != std::string::npos) doc.replace(at, from.size(), to);
    return doc;
  };
  const std::string malformed[] = {
      edited("\"reps\": 3,", "\"reps\": -1,"),
      edited("\"reps\": 3,", "\"reps\": 2.9,"),
      edited("\"reps\": 3,", "\"reps\": 18446744073709551616,"),
      edited("\"duration_s\": 20,", "\"duration_s\": 1e300,"),
      edited("\"duration_s\": 20,", "\"duration_s\": -1,"),
      edited("\"duration_s\": 20,", "\"duration_s\": 20-1,"),
      edited("\"intervals_s\": [10, 20]", "\"intervals_s\": [10, 1e300]"),
      edited("\"fault_scales\": [1, 2]", "\"fault_scales\": [1, 1e999]"),
      std::string(200000, '['),
  };
  for (const std::string& doc : malformed) {
    EXPECT_THROW(parse_fragment(doc), std::runtime_error)
        << doc.substr(0, 200);
  }
}

TEST(SweepFragment, MergeValidatesHeadersAndCompleteness) {
  const SweepConfig config = small_config();
  std::vector<ShardResult> fragments;
  for (std::uint32_t i = 0; i < 3; ++i) {
    SweepConfig shard = config;
    shard.shard_index = i;
    shard.shard_count = 3;
    fragments.push_back(run_sweep(shard, nullptr));
  }

  // Missing shard: the error lists the lost cells and says to re-run.
  std::vector<ShardResult> incomplete = {fragments[0], fragments[2]};
  try {
    merge_fragments(incomplete);
    FAIL() << "merge accepted an incomplete fragment set";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("missing"), std::string::npos) << msg;
    EXPECT_NE(msg.find("re-run"), std::string::npos) << msg;
  }

  // Duplicate cells: the same fragment twice must be rejected.
  std::vector<ShardResult> duplicated = {fragments[0], fragments[0],
                                         fragments[1], fragments[2]};
  EXPECT_THROW(merge_fragments(duplicated), std::runtime_error);

  // Header mismatch: a fragment from a different sweep seed cannot merge.
  SweepConfig other = config;
  other.seed = 12;
  other.shard_index = 0;
  other.shard_count = 3;
  std::vector<ShardResult> mixed = {fragments[0],
                                    run_sweep(other, nullptr)};
  EXPECT_THROW(merge_fragments(mixed), std::runtime_error);

  EXPECT_THROW(merge_fragments({}), std::runtime_error);
}

TEST(SweepFragment, SingleShardMergeIsIdentity) {
  // Degenerate but legal: merging the one-and-only fragment of a 1-shard
  // sweep reproduces the document (modulo the normalized shard header,
  // which for 1/1 is already normalized).
  const SweepConfig config = small_config();
  const ShardResult full = run_sweep(config, nullptr);
  const ShardResult merged = merge_fragments({full});
  EXPECT_EQ(to_json(merged), to_json(full));
}

TEST(SweepFragment, EmptyCellsSerializeCleanly) {
  // A shard that owns zero cells (possible for small grids) must still
  // emit a valid, parseable fragment that merges with its siblings.
  SweepConfig config = small_config();
  config.axes.schemes = {Scheme::kCoordinated};
  config.axes.fault_scales = {1.0};
  config.axes.intervals_s = {10.0};  // 1-cell grid
  std::vector<ShardResult> fragments;
  std::size_t populated = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    SweepConfig shard = config;
    shard.shard_index = i;
    shard.shard_count = 3;
    fragments.push_back(run_sweep(shard, nullptr));
    if (!fragments.back().cells.empty()) ++populated;
    // Round-trip even the empty fragments.
    EXPECT_EQ(to_json(parse_fragment(to_json(fragments.back()))),
              to_json(fragments.back()));
  }
  EXPECT_EQ(populated, 1u);

  const ShardResult merged = merge_fragments(fragments);
  const ShardResult full = run_sweep(config, nullptr);
  EXPECT_EQ(to_json(merged), to_json(full));
}
