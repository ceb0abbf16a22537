// In-order parallel-for for independent seeded jobs.
//
// Built for the campaign fan-outs (chaos, general, sweep cells): n
// missions whose seeds are all derived up-front, so any execution order
// yields bit-identical reports. Work is shared out by one atomic counter:
// each thread claims the next unclaimed index, so indices start in
// increasing order and a mission's report is typically ready just after
// every earlier one. Results are handed to the consumer strictly in index
// order through a reorder buffer that holds only results whose
// predecessors are still running — about one per thread under uniform
// mission lengths — so a parallel run streams output and folds its
// aggregates in exactly the sequence of a sequential one.
//
// Missions run for milliseconds, so one mutex around the reorder buffer
// is noise, and the plain locking is trivially ThreadSanitizer-clean.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace synergy {

/// Hardware concurrency, clamped to at least 1 (the value used for
/// `--jobs 0`).
inline std::size_t default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// The n mission seeds of a campaign, drawn from `seed` before any mission
/// runs: the executor can reorder execution but never the adversary.
inline std::vector<std::uint64_t> derive_seeds(std::uint64_t seed,
                                               std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  Rng seeder(seed);
  for (auto& s : seeds) s = seeder.next();
  return seeds;
}

/// Run produce(0), ..., produce(n-1) on up to `jobs` threads (0 = all
/// hardware threads; the calling thread is one of them) and call
/// consume(i, produce(i)) for every i strictly in index order, one call
/// at a time. With one worker this is a plain loop. Returns the number of
/// workers used: `jobs` resolved and clamped to [1, max(1, n)].
///
/// If a call throws, no further indices are claimed; the exception of the
/// lowest failing index — the one a sequential loop would have thrown —
/// is rethrown once every thread has joined, after consume has seen
/// exactly the indices below it.
template <class Produce, class Consume>
std::size_t run_ordered(std::size_t n, std::size_t jobs, Produce&& produce,
                        Consume&& consume) {
  if (jobs == 0) jobs = default_jobs();
  jobs = std::clamp<std::size_t>(jobs, 1, std::max<std::size_t>(1, n));
  if (jobs == 1) {
    for (std::size_t i = 0; i < n; ++i) consume(i, produce(i));
    return 1;
  }

  using Result = std::invoke_result_t<Produce&, std::size_t>;
  std::atomic<std::size_t> next_claim{0};
  std::atomic<bool> stop{false};
  std::mutex mu;  // guards everything below
  std::map<std::size_t, Result> pending;  // produced, not yet consumed
  std::size_t next_consume = 0;
  std::size_t failed_at = n;
  std::exception_ptr error;

  auto fail = [&](std::size_t i, std::exception_ptr e) {  // mu held
    if (i < failed_at) {
      failed_at = i;
      error = std::move(e);
    }
    stop = true;
  };
  auto worker = [&] {
    while (!stop) {
      const std::size_t i = next_claim++;
      if (i >= n) return;
      std::optional<Result> result;
      std::exception_ptr produce_error;
      try {
        result.emplace(produce(i));
      } catch (...) {
        produce_error = std::current_exception();
      }
      std::lock_guard<std::mutex> lk(mu);
      if (produce_error) {
        fail(i, std::move(produce_error));
        continue;
      }
      if (i > failed_at) continue;  // past a failure: never consumed
      // consume runs under mu: the lock is what serializes it in index order.
      try {
        pending.emplace(i, std::move(*result));
        while (next_consume < failed_at && !pending.empty() &&
               pending.begin()->first == next_consume) {
          consume(next_consume, std::move(pending.begin()->second));
          pending.erase(pending.begin());
          ++next_consume;
        }
      } catch (...) {
        fail(next_consume, std::current_exception());
      }
    }
  };

  {
    std::vector<std::jthread> threads;  // joined on scope exit
    threads.reserve(jobs - 1);
    for (std::size_t t = 1; t < jobs; ++t) threads.emplace_back(worker);
    worker();
  }
  if (error) std::rethrow_exception(error);
  return jobs;
}

}  // namespace synergy
