// Mergeable streaming statistics for the sweep driver.
//
// A sweep cell folds 10^4+ mission reports into O(1) state: Welford
// moments for mean/variance/CI (common/stats.hpp) and a fixed-capacity
// reservoir for distribution quantiles. Both are *mergeable* so per-shard
// fragments can be combined into exactly the aggregate a single process
// would have produced:
//
//   - Moments merge with Chan's parallel-variance update, commutative
//     bit-for-bit — shard order cannot perturb the result.
//   - The reservoir keeps the capacity samples with the highest seeded
//     64-bit priority (a hash of the cell seed and the sample ordinal,
//     assigned at fold time). "Top-K by a total order over per-item
//     priorities" is insertion-order independent, and the union of
//     per-cell top-Ks contains the global top-K, so merging reservoirs is
//     exact, not approximate.
//
// This is the cross-shard analogue of the campaign executor's
// `--jobs N == --jobs 1` contract: same samples, same bytes, regardless
// of how the work was partitioned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"

namespace synergy::sweep {

/// SplitMix64 finalizer: the seed-stable hash behind cell seeds, shard
/// assignment, and reservoir priorities.
std::uint64_t mix64(std::uint64_t x);

/// One retained distribution sample. `priority` decides survival;
/// (cell, ordinal) break the (astronomically unlikely) priority ties and
/// identify the sample's origin for deterministic re-merging.
struct WeightedSample {
  double value = 0.0;
  std::uint64_t priority = 0;
  std::uint64_t cell = 0;
  std::uint64_t ordinal = 0;
};

/// Strict total order: higher priority survives; ties fall back to
/// origin. No dependence on insertion order anywhere.
bool sample_outranks(const WeightedSample& a, const WeightedSample& b);

/// Bounded sample set keeping the top-`capacity` samples by priority.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity);

  void add(double value, std::uint64_t priority, std::uint64_t cell,
           std::uint64_t ordinal);
  void add(const WeightedSample& s);

  /// Union with another reservoir (top-K of the combined sample set).
  void merge(const Reservoir& other);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return samples_.size(); }

  /// Retained samples in descending rank order (highest priority first) —
  /// the canonical serialization order.
  const std::vector<WeightedSample>& ranked() const { return samples_; }

  /// Approximate quantile over the retained values (nearest-rank with
  /// linear interpolation); 0 when empty.
  double quantile(double q) const;

 private:
  std::size_t capacity_;
  std::vector<WeightedSample> samples_;  ///< kept sorted by sample_outranks
};

}  // namespace synergy::sweep
