// Simulation time: strongly-typed wrappers over signed 64-bit microsecond
// counts. We deliberately avoid std::chrono here: simulated clocks drift,
// get resynchronized, and are compared against bounds derived from protocol
// parameters, and a single integral representation keeps that arithmetic
// exact and reproducible across hosts.
#pragma once

#include <compare>
#include <cstdint>

namespace synergy {

/// A span of simulated time, in microseconds. Value type, totally ordered.
class Duration {
 public:
  constexpr Duration() = default;
  constexpr explicit Duration(std::int64_t micros) : micros_(micros) {}

  static constexpr Duration zero() { return Duration{0}; }
  static constexpr Duration micros(std::int64_t n) { return Duration{n}; }
  static constexpr Duration millis(std::int64_t n) {
    return Duration{n * 1000};
  }
  static constexpr Duration seconds(std::int64_t n) {
    return Duration{n * 1'000'000};
  }
  /// Largest span, in seconds, that untrusted input (CLI flags, sweep
  /// fragments) may name: far inside the microsecond range, so
  /// from_seconds of any value in [0, kMaxInputSeconds] cannot overflow.
  static constexpr double kMaxInputSeconds = 1e12;

  /// Fractional seconds, rounded to the nearest microsecond.
  static constexpr Duration from_seconds(double s) {
    return Duration{static_cast<std::int64_t>(s * 1e6 + (s >= 0 ? 0.5 : -0.5))};
  }

  constexpr std::int64_t count() const { return micros_; }
  constexpr double to_seconds() const {
    return static_cast<double>(micros_) / 1e6;
  }

  constexpr Duration operator+(Duration o) const {
    return Duration{micros_ + o.micros_};
  }
  constexpr Duration operator-(Duration o) const {
    return Duration{micros_ - o.micros_};
  }
  constexpr Duration operator-() const { return Duration{-micros_}; }
  constexpr Duration operator*(std::int64_t k) const {
    return Duration{micros_ * k};
  }
  constexpr Duration operator/(std::int64_t k) const {
    return Duration{micros_ / k};
  }
  constexpr Duration& operator+=(Duration o) {
    micros_ += o.micros_;
    return *this;
  }
  constexpr Duration& operator-=(Duration o) {
    micros_ -= o.micros_;
    return *this;
  }

  constexpr auto operator<=>(const Duration&) const = default;

 private:
  std::int64_t micros_ = 0;
};

/// An instant on some timeline (simulated real time or a local drifting
/// clock's reading). Affine: TimePoint - TimePoint = Duration.
class TimePoint {
 public:
  constexpr TimePoint() = default;
  constexpr explicit TimePoint(std::int64_t micros) : micros_(micros) {}

  static constexpr TimePoint origin() { return TimePoint{0}; }
  /// A sentinel later than any instant reachable in practice.
  static constexpr TimePoint max() {
    return TimePoint{INT64_MAX / 4};
  }

  constexpr std::int64_t count() const { return micros_; }
  constexpr double to_seconds() const {
    return static_cast<double>(micros_) / 1e6;
  }

  constexpr TimePoint operator+(Duration d) const {
    return TimePoint{micros_ + d.count()};
  }
  constexpr TimePoint operator-(Duration d) const {
    return TimePoint{micros_ - d.count()};
  }
  constexpr Duration operator-(TimePoint o) const {
    return Duration{micros_ - o.micros_};
  }
  constexpr TimePoint& operator+=(Duration d) {
    micros_ += d.count();
    return *this;
  }

  constexpr auto operator<=>(const TimePoint&) const = default;

 private:
  std::int64_t micros_ = 0;
};

}  // namespace synergy
