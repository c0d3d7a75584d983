#include "fvc/sim/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "fvc/obs/metrics.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/obs/trace.hpp"

namespace fvc::sim {

void describe(const PoolMetrics& pool, obs::MetricsNode& node) {
  node.set("workers", static_cast<double>(pool.workers.size()));
  node.set("requested_threads", static_cast<double>(pool.requested_threads));
  node.add("tasks", static_cast<double>(pool.total_tasks()));
  node.add("busy_ns", static_cast<double>(pool.total_busy_ns()));
  node.add("idle_ns", static_cast<double>(pool.total_idle_ns()));
  node.add_elapsed_ns(pool.wall_ns);
  node.set("utilization", pool.utilization());
  obs::LogHistogram& per_worker = node.histogram("tasks_per_worker");
  for (const PoolMetrics::Worker& w : pool.workers) {
    per_worker.add(w.tasks);
  }
}

std::size_t default_thread_count() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hc == 0 ? 1 : hc, 1, 64);
}

namespace {

/// One index on worker `self`: a `pool.block` trace slice around the
/// callback, timed into `slot` when the section is metered.
void run_index(const ParallelFn& fn, std::size_t index, std::size_t self,
               PoolMetrics::Worker* slot) {
  const obs::TraceScope block_scope("pool.block", obs::TraceCategory::kPool,
                                    "index", index);
  if (slot == nullptr) {
    fn(index, self);
    return;
  }
  const std::uint64_t t0 = obs::monotonic_ns();
  fn(index, self);
  slot->busy_ns += obs::monotonic_ns() - t0;
  ++slot->tasks;
}

}  // namespace

void parallel_for(std::size_t count, std::size_t threads, const ParallelFn& fn,
                  PoolMetrics* metrics) {
  if (metrics != nullptr) {
    metrics->requested_threads = threads;
    metrics->workers.clear();
    metrics->wall_ns = 0;
  }
  if (count == 0) {
    return;
  }
  threads = std::clamp<std::size_t>(threads, 1, count);
  const obs::TraceScope pool_scope("pool.parallel_for", obs::TraceCategory::kPool,
                                   "count", count, "threads", threads);
  const std::uint64_t wall_start =
      metrics != nullptr ? obs::monotonic_ns() : 0;
  std::vector<PoolMetrics::Worker> worker_slots(metrics != nullptr ? threads : 0);
  std::exception_ptr first_error;
  if (threads == 1) {
    PoolMetrics::Worker* const slot = metrics != nullptr ? &worker_slots[0] : nullptr;
    for (std::size_t i = 0; i < count; ++i) {
      run_index(fn, i, 0, slot);
    }
  } else {
    std::atomic<std::size_t> cursor{0};
    std::mutex error_mutex;
    auto worker = [&](std::size_t self) {
      const obs::TraceScope worker_scope("pool.worker", obs::TraceCategory::kPool,
                                         "worker", self);
      PoolMetrics::Worker* const slot =
          metrics != nullptr ? &worker_slots[self] : nullptr;
      while (true) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) {
          obs::trace_instant("pool.queue_empty", obs::TraceCategory::kPool,
                             "worker", self);
          return;
        }
        try {
          run_index(fn, i, self, slot);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) {
            first_error = std::current_exception();
          }
          cursor.store(count, std::memory_order_relaxed);  // drain remaining work
          return;
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back(worker, t);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  if (metrics != nullptr) {
    metrics->workers = std::move(worker_slots);
    metrics->wall_ns = obs::monotonic_ns() - wall_start;
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace fvc::sim
