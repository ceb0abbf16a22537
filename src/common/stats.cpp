#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace synergy {

void Moments::add(double x) {
  if (n == 0) {
    min = x;
    max = x;
  } else {
    min = std::min(min, x);
    max = std::max(max, x);
  }
  ++n;
  const double delta = x - mean;
  mean += delta / static_cast<double>(n);
  m2 += delta * (x - mean);
}

double Moments::variance() const {
  if (n < 2) return 0.0;
  return m2 / static_cast<double>(n - 1);
}

double Moments::ci95_halfwidth() const {
  if (n < 2) return 0.0;
  return 1.96 * std::sqrt(variance() / static_cast<double>(n));
}

namespace {

/// Total order over accumulator states by raw bit patterns (not values:
/// -0.0 vs 0.0 and NaN payloads must not collapse). Used only to pick a
/// canonical operand order inside merge().
std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

bool state_less(const Moments& a, const Moments& b) {
  if (a.n != b.n) return a.n < b.n;
  if (bits(a.mean) != bits(b.mean)) return bits(a.mean) < bits(b.mean);
  if (bits(a.m2) != bits(b.m2)) return bits(a.m2) < bits(b.m2);
  if (bits(a.min) != bits(b.min)) return bits(a.min) < bits(b.min);
  return bits(a.max) < bits(b.max);
}

}  // namespace

Moments merge(const Moments& a, const Moments& b) {
  if (a.n == 0) return b;
  if (b.n == 0) return a;
  // Canonical operand order makes the combine commutative bit-for-bit:
  // merge(a, b) and merge(b, a) execute the identical float sequence.
  const Moments& lo = state_less(a, b) ? a : b;
  const Moments& hi = state_less(a, b) ? b : a;

  Moments out;
  out.n = lo.n + hi.n;
  const double na = static_cast<double>(lo.n);
  const double nb = static_cast<double>(hi.n);
  const double nn = static_cast<double>(out.n);
  const double delta = hi.mean - lo.mean;
  out.mean = lo.mean + delta * (nb / nn);
  out.m2 = lo.m2 + hi.m2 + delta * delta * (na * nb / nn);
  out.min = std::min(lo.min, hi.min);
  out.max = std::max(lo.max, hi.max);
  return out;
}

}  // namespace synergy
