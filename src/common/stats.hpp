// Mergeable streaming moments: Welford mean/variance, min/max and a
// normal-approximation confidence interval in O(1) state.
//
// Moments merge with Chan's parallel-variance update. The operands are
// canonically ordered inside merge(), so merge(a, b) and merge(b, a) are
// bit-for-bit identical: the sweep's per-shard fragments combine into
// exactly the aggregate a single process would have produced, whatever
// the shard order.
#pragma once

#include <cstdint>

namespace synergy {

/// Welford/Chan mergeable moment accumulator.
struct Moments {
  std::uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double min = 0.0;
  double max = 0.0;

  void add(double x);

  double variance() const;  ///< Sample variance (n-1); 0 for n < 2.
  /// Half-width of the ~95% normal-approximation CI on the mean.
  double ci95_halfwidth() const;
};

/// Chan parallel-variance combine. Commutative bit-for-bit: the operands
/// are ordered canonically before the update, so fragment merge order is
/// irrelevant. (Associativity holds mathematically; across different
/// *groupings* the floating-point rounding may differ, which is why the
/// sweep always folds cells in cell-index order — see sweep/fragment.cpp.)
Moments merge(const Moments& a, const Moments& b);

}  // namespace synergy
