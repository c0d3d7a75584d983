// Property suite for the one-index work-claiming scheduler
// (sim::parallel_for): for arbitrary (count, threads), metered or not —
// including the degenerate corners count = 0 and threads > count — every
// index is executed exactly once on a worker id in range, and a metered
// section accounts for every index.

#include "fvc/sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "fvc/stats/rng.hpp"

namespace fvc::sim {
namespace {

/// Runs one section and checks every schedule invariant that must hold for
/// ANY (count, threads, metered): exactly-once execution, worker-id range,
/// and (metered) metrics accounting.
void check_schedule(std::size_t count, std::size_t threads, bool metered = true) {
  SCOPED_TRACE("count=" + std::to_string(count) + " threads=" +
               std::to_string(threads) + " metered=" + std::to_string(metered));
  std::vector<std::atomic<int>> visits(count);
  const std::size_t clamped_threads =
      count == 0 ? 0 : std::clamp<std::size_t>(threads, 1, count);
  std::atomic<bool> worker_in_range{true};
  PoolMetrics pool;
  parallel_for(
      count, threads,
      [&](std::size_t index, std::size_t worker) {
        visits[index].fetch_add(1);
        if (worker >= clamped_threads) {
          worker_in_range.store(false);
        }
      },
      metered ? &pool : nullptr);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
  EXPECT_TRUE(worker_in_range.load());
  if (!metered) {
    return;
  }
  // Metrics account for exactly the indices that ran, on exactly the
  // clamped number of workers.
  EXPECT_EQ(pool.requested_threads, threads);
  EXPECT_EQ(pool.total_tasks(), count);
  EXPECT_EQ(pool.workers.size(), clamped_threads);
}

TEST(ParallelSchedule, DegenerateCorners) {
  check_schedule(0, 4);     // count = 0: no callback, empty metrics
  check_schedule(0, 0);     // everything degenerate at once
  check_schedule(1, 1);     // minimal section
  check_schedule(3, 100);   // threads > count
  check_schedule(7, 7);     // threads == count
  check_schedule(1000, 0);  // threads = 0 clamps to 1
}

TEST(ParallelSchedule, ArbitraryTriples) {
  stats::Pcg32 rng(0xb10cced);
  for (int i = 0; i < 60; ++i) {
    const std::size_t count = rng() % 2000;
    const std::size_t threads = rng() % 12;
    check_schedule(count, threads, rng() % 2 == 0);
  }
}

TEST(ParallelSchedule, SingleThreadRunsBlocksInAscendingOrder) {
  std::vector<std::size_t> order;
  parallel_for(20, 1, [&](std::size_t index, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(index);
  });
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelSchedule, ExceptionPropagatesAndDrains) {
  std::atomic<int> ran{0};
  try {
    parallel_for(100000, 4, [&](std::size_t index, std::size_t) {
      if (index == 0) {
        throw std::runtime_error("boom");
      }
      ran.fetch_add(1);
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(ran.load(), 100000 - 1);  // the drain dropped unclaimed indices
}

TEST(ParallelSchedule, MeteredBusyTimeBoundedByCapacity) {
  PoolMetrics pool;
  parallel_for(512, 3, [](std::size_t, std::size_t) {}, &pool);
  EXPECT_EQ(pool.total_tasks(), 512u);
  EXPECT_LE(pool.total_busy_ns(), pool.wall_ns * pool.workers.size());
  EXPECT_EQ(pool.total_idle_ns() + pool.total_busy_ns(),
            pool.wall_ns * pool.workers.size());
}

}  // namespace
}  // namespace fvc::sim
