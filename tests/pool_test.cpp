// run_ordered: every index once, in-order consumption, exception
// propagation, load sharing under skew, streaming. The suite keeps its
// historical name so the test IDs stay stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/pool.hpp"

namespace synergy {
namespace {

TEST(ThreadPool, RunIndexedRunsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  const std::size_t used = run_ordered(
      kN, 4, [&](std::size_t i) { return ++hits[i]; },
      [](std::size_t, int) {});
  EXPECT_EQ(used, 4u);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, RunIndexedResultsLandAtTheirIndex) {
  // consume sees index i with produce(i)'s result, strictly in index
  // order, at every worker count: the contract the campaigns rely on for
  // byte-identical output and fold order.
  constexpr std::size_t kN = 200;
  for (std::size_t jobs : {1u, 2u, 8u}) {
    std::vector<std::size_t> order;
    run_ordered(
        kN, jobs,
        [](std::size_t i) {
          if (i % 7 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(300));
          }
          return i * i;
        },
        [&](std::size_t i, std::size_t square) {
          EXPECT_EQ(square, i * i) << i;
          order.push_back(i);
        });
    ASSERT_EQ(order.size(), kN) << "jobs=" << jobs;
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(order[i], i) << "jobs=" << jobs;
    }
  }
}

TEST(ThreadPool, RunIndexedRethrowsTaskException) {
  for (std::size_t jobs : {1u, 3u}) {
    std::atomic<int> running{0};
    std::vector<std::size_t> consumed;
    try {
      run_ordered(
          50, jobs,
          [&](std::size_t i) {
            ++running;
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            --running;
            if (i == 17) throw std::runtime_error("task 17");
            if (i == 30) throw std::logic_error("task 30");
            return i;
          },
          [&](std::size_t i, std::size_t) { consumed.push_back(i); });
      ADD_FAILURE() << "no exception at jobs=" << jobs;
    } catch (const std::exception& e) {
      // The lowest failing index wins, as in a sequential loop, and no
      // worker is still running when it surfaces.
      EXPECT_STREQ(e.what(), "task 17");
      EXPECT_EQ(running.load(), 0);
    }
    // consume saw exactly the prefix before the failure.
    ASSERT_EQ(consumed.size(), 17u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < consumed.size(); ++i) {
      EXPECT_EQ(consumed[i], i);
    }
  }
}

TEST(ThreadPool, StealsWorkUnderSkewedTaskLengths) {
  // Task 0 hogs its worker; the short tail must go to the others.
  constexpr std::size_t kN = 64;
  std::mutex mu;
  std::set<std::thread::id> participants;
  run_ordered(
      kN, 4,
      [&](std::size_t i) {
        if (i == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        std::lock_guard<std::mutex> lk(mu);
        participants.insert(std::this_thread::get_id());
        return i;
      },
      [](std::size_t, std::size_t) {});
  EXPECT_GE(participants.size(), 2u);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  // jobs 0 resolves to default_jobs(), and the count is clamped to the
  // work available (never below one worker).
  auto count = [](std::size_t n, std::size_t jobs) {
    std::atomic<std::size_t> ran{0};
    const std::size_t used = run_ordered(
        n, jobs, [&](std::size_t) { return ++ran; },
        [](std::size_t, std::size_t) {});
    EXPECT_EQ(ran.load(), n);
    return used;
  };
  EXPECT_EQ(count(1000, 0), std::min<std::size_t>(default_jobs(), 1000));
  EXPECT_EQ(count(1, 0), 1u);
  EXPECT_EQ(count(3, 8), 3u);
  EXPECT_EQ(count(0, 4), 1u);
}

TEST(ThreadPool, DefaultJobsIsPositive) { EXPECT_GE(default_jobs(), 1u); }

TEST(ThreadPool, ManySmallTasksStress) {
  constexpr std::size_t kN = 5000;
  std::uint64_t sum = 0;
  std::size_t expected = 0;
  run_ordered(
      kN, 8, [](std::size_t i) { return static_cast<std::uint64_t>(i); },
      [&](std::size_t i, std::uint64_t v) {
        EXPECT_EQ(i, expected++);
        sum += v;
      });
  EXPECT_EQ(sum, kN * (kN - 1) / 2);
}

TEST(ThreadPool, ConsumeStreamsBeforeLastProduceStarts) {
  // Indices are claimed in increasing order, so with uniform tasks the
  // first result is consumed while most of the range has not started:
  // output streams and the reorder buffer stays about one per worker.
  constexpr std::size_t kN = 48;
  std::atomic<bool> consumed_first{false};
  std::atomic<bool> last_started_after_first{false};
  run_ordered(
      kN, 4,
      [&](std::size_t i) {
        if (i == kN - 1) last_started_after_first = consumed_first.load();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return i;
      },
      [&](std::size_t i, std::size_t) {
        if (i == 0) consumed_first = true;
      });
  EXPECT_TRUE(last_started_after_first.load());
}

}  // namespace
}  // namespace synergy
