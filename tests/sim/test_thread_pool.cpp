#include "fvc/sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "fvc/obs/run_metrics.hpp"

namespace fvc::sim {
namespace {

// Worker-agnostic driver: these tests pin the scheduler's per-index
// semantics (visit-once, sequential order at one thread, exception drain).
void for_each_index(std::size_t count, std::size_t threads,
                    const std::function<void(std::size_t)>& fn,
                    PoolMetrics* metrics = nullptr) {
  parallel_for(
      count, threads, [&fn](std::size_t i, std::size_t) { fn(i); }, metrics);
}

TEST(DefaultThreadCount, Positive) {
  EXPECT_GE(default_thread_count(), 1u);
  EXPECT_LE(default_thread_count(), 64u);
}

TEST(BlockedGrain1, VisitsEveryIndexOnce) {
  const std::size_t count = 10000;
  std::vector<std::atomic<int>> visits(count);
  for_each_index(count, 8, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(BlockedGrain1, ZeroCountIsNoop) {
  bool called = false;
  for_each_index(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(BlockedGrain1, SingleThreadIsSequential) {
  std::vector<std::size_t> order;
  for_each_index(100, 1, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(BlockedGrain1, ThreadsClampedToCount) {
  // More threads than work items must not deadlock or double-run.
  std::vector<std::atomic<int>> visits(3);
  for_each_index(3, 100, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
}

TEST(BlockedGrain1, ResultsIdenticalAcrossThreadCounts) {
  const std::size_t count = 5000;
  auto run = [count](std::size_t threads) {
    std::vector<double> out(count);
    for_each_index(count, threads,
                   [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5; });
    return std::accumulate(out.begin(), out.end(), 0.0);
  };
  const double s1 = run(1);
  EXPECT_EQ(run(2), s1);
  EXPECT_EQ(run(7), s1);
  EXPECT_EQ(run(16), s1);
}

TEST(PoolMetrics, AccountsForEveryTask) {
  PoolMetrics pool;
  std::vector<std::atomic<int>> visits(200);
  for_each_index(200, 4, [&](std::size_t i) { visits[i].fetch_add(1); }, &pool);
  for (auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
  EXPECT_EQ(pool.requested_threads, 4u);
  EXPECT_GE(pool.workers.size(), 1u);
  EXPECT_LE(pool.workers.size(), 4u);
  EXPECT_EQ(pool.total_tasks(), 200u);
  // Busy time is bounded by the section's worker-seconds capacity.
  EXPECT_LE(pool.total_busy_ns(), pool.wall_ns * pool.workers.size());
  EXPECT_EQ(pool.total_idle_ns(),
            pool.wall_ns * pool.workers.size() - pool.total_busy_ns());
}

TEST(PoolMetrics, DegenerateSectionsHaveZeroIdleAndUtilization) {
  // A default-constructed (never-run) section: no workers, no wall time.
  // total_idle_ns() must not underflow and utilization must not divide by
  // zero — both report 0.
  const PoolMetrics never_run;
  EXPECT_EQ(never_run.total_idle_ns(), 0u);
  EXPECT_DOUBLE_EQ(never_run.utilization(), 0.0);

  // A count=0 section leaves the metrics in the same degenerate state.
  PoolMetrics empty;
  for_each_index(0, 4, [](std::size_t) {}, &empty);
  EXPECT_EQ(empty.wall_ns, 0u);
  EXPECT_TRUE(empty.workers.empty());
  EXPECT_EQ(empty.total_idle_ns(), 0u);
  EXPECT_DOUBLE_EQ(empty.utilization(), 0.0);

  // Workers but zero wall (timer granularity can produce this): idle is 0,
  // not a wrapped-around huge value.
  PoolMetrics zero_wall;
  zero_wall.workers.resize(2);
  zero_wall.workers[0].busy_ns = 5;
  EXPECT_EQ(zero_wall.total_idle_ns(), 0u);
  EXPECT_DOUBLE_EQ(zero_wall.utilization(), 0.0);
}

TEST(PoolMetrics, UtilizationClampedWhenBusyExceedsCapacity) {
  // Clock skew between the per-block timers and the section wall timer can
  // make summed busy time exceed wall * workers; the accessors saturate
  // instead of reporting idle underflow or utilization > 1.
  PoolMetrics pool;
  pool.wall_ns = 100;
  pool.workers.resize(2);
  pool.workers[0].busy_ns = 150;
  pool.workers[1].busy_ns = 140;  // busy 290 > capacity 200
  EXPECT_EQ(pool.total_idle_ns(), 0u);
  EXPECT_DOUBLE_EQ(pool.utilization(), 1.0);
}

TEST(PoolMetrics, NullPointerMeansUnmetered) {
  // An explicit nullptr must behave exactly like the defaulted argument.
  std::vector<std::size_t> order;
  for_each_index(50, 1, [&](std::size_t i) { order.push_back(i); }, nullptr);
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(PoolMetrics, DescribeExportsUtilization) {
  PoolMetrics pool;
  for_each_index(64, 2, [](std::size_t) {}, &pool);
  obs::MetricsNode node("pool");
  describe(pool, node);
  EXPECT_DOUBLE_EQ(node.counter("tasks"), 64.0);
  EXPECT_GE(node.counter("workers"), 1.0);
  EXPECT_DOUBLE_EQ(node.counter("requested_threads"), 2.0);
  EXPECT_GE(node.counter("utilization"), 0.0);
  EXPECT_LE(node.counter("utilization"), 1.0);
  EXPECT_EQ(node.elapsed_ns(), pool.wall_ns);
  ASSERT_NE(node.find_histogram("tasks_per_worker"), nullptr);
  EXPECT_EQ(node.find_histogram("tasks_per_worker")->total(), pool.workers.size());
}

TEST(BlockedGrain1, PropagatesException) {
  EXPECT_THROW(
      for_each_index(100, 4,
                     [](std::size_t i) {
                       if (i == 42) {
                         throw std::runtime_error("boom");
                       }
                     }),
      std::runtime_error);
}

TEST(BlockedGrain1, ExceptionStopsRemainingWork) {
  std::atomic<int> done{0};
  try {
    for_each_index(100000, 4, [&](std::size_t i) {
      if (i == 0) {
        throw std::runtime_error("early");
      }
      done.fetch_add(1);
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  // The drain isn't instantaneous, but most work must be skipped.
  EXPECT_LT(done.load(), 100000);
}

}  // namespace
}  // namespace fvc::sim
