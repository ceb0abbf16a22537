#include "sweep/stats.hpp"

#include <algorithm>
#include <bit>

namespace synergy::sweep {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

bool sample_outranks(const WeightedSample& a, const WeightedSample& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  if (a.cell != b.cell) return a.cell < b.cell;
  if (a.ordinal != b.ordinal) return a.ordinal < b.ordinal;
  return std::bit_cast<std::uint64_t>(a.value) <
         std::bit_cast<std::uint64_t>(b.value);
}

Reservoir::Reservoir(std::size_t capacity) : capacity_(capacity) {
  samples_.reserve(capacity);
}

void Reservoir::add(const WeightedSample& s) {
  // Insertion sort into rank order; capacity is small (tens), and the
  // deterministic total order means the retained set is exactly the
  // top-K of everything ever offered, however it arrived.
  auto pos = std::lower_bound(samples_.begin(), samples_.end(), s,
                              sample_outranks);
  if (pos == samples_.end() && samples_.size() >= capacity_) return;
  samples_.insert(pos, s);
  if (samples_.size() > capacity_) samples_.pop_back();
}

void Reservoir::add(double value, std::uint64_t priority, std::uint64_t cell,
                    std::uint64_t ordinal) {
  add(WeightedSample{value, priority, cell, ordinal});
}

void Reservoir::merge(const Reservoir& other) {
  for (const WeightedSample& s : other.samples_) add(s);
}

double Reservoir::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> values;
  values.reserve(samples_.size());
  for (const WeightedSample& s : samples_) values.push_back(s.value);
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace synergy::sweep
