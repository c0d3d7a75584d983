/// \file thread_pool.hpp
/// \brief Minimal work-sharing parallel-for built on one-index claiming.
///
/// Workers claim one index at a time from a shared atomic cursor: one
/// callback invocation, one metrics clock pair and one trace slice per
/// index.  Every workload this repository schedules — Monte-Carlo trials,
/// grid rows, serve row slots — costs far more per index than one atomic
/// claim, and costs vary between indices (early exits, clustered
/// fleets), so the finest claim is also the one that balances best
/// (measurements in docs/ARCHITECTURE.md, "One-index claiming").  Indices
/// are independent and results go to caller-owned per-index slots, so
/// the engine stays deterministic regardless of thread count.
///
/// Observability: a metered call (non-null `metrics`) fills an
/// `obs`-style `PoolMetrics` — per-worker task counts and busy time, plus
/// the wall time of the whole parallel section — so utilization
/// (busy / (workers * wall)) and imbalance are visible in exported
/// metrics.  An unmetered call takes the same code path with a null
/// metrics pointer: no clock calls per index, no overhead.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace fvc::obs {
class MetricsNode;  // fvc/obs/run_metrics.hpp
}

namespace fvc::sim {

/// Number of worker threads to use by default: hardware concurrency,
/// clamped to [1, 64].
[[nodiscard]] std::size_t default_thread_count();

/// Utilization metrics of one parallel section.  Filled only by a metered
/// call; per-worker slots are written by their own worker and
/// aggregated after the join, so no synchronization is involved.
struct PoolMetrics {
  struct Worker {
    std::uint64_t tasks = 0;    ///< indices this worker executed
    std::uint64_t busy_ns = 0;  ///< wall time inside the callback
  };
  std::uint64_t wall_ns = 0;    ///< whole-section wall time (fork to join)
  std::size_t requested_threads = 0;  ///< caller's thread argument
  std::vector<Worker> workers;  ///< one entry per actual worker

  [[nodiscard]] std::uint64_t total_tasks() const {
    std::uint64_t t = 0;
    for (const Worker& w : workers) {
      t += w.tasks;
    }
    return t;
  }
  [[nodiscard]] std::uint64_t total_busy_ns() const {
    std::uint64_t t = 0;
    for (const Worker& w : workers) {
      t += w.busy_ns;
    }
    return t;
  }
  /// Total idle time: worker-seconds the section held but did not use.
  /// Degenerate sections (no workers ran, zero wall time) and timer skew
  /// (per-index busy sums exceeding the section capacity by a clock
  /// quantum) saturate to 0 instead of wrapping around.
  [[nodiscard]] std::uint64_t total_idle_ns() const {
    if (workers.empty() || wall_ns == 0) {
      return 0;
    }
    const std::uint64_t capacity = wall_ns * workers.size();
    const std::uint64_t busy = total_busy_ns();
    return capacity > busy ? capacity - busy : 0;
  }
  /// busy / (workers * wall) in [0, 1]; 0 for degenerate sections (the
  /// 0/0 case), clamped at 1 under timer skew.
  [[nodiscard]] double utilization() const {
    const double capacity =
        static_cast<double>(wall_ns) * static_cast<double>(workers.size());
    if (capacity <= 0.0) {
      return 0.0;
    }
    const double u = static_cast<double>(total_busy_ns()) / capacity;
    return u < 1.0 ? u : 1.0;
  }
};

/// Index callback: run index `index`.  `worker` identifies the executing
/// worker (stable in [0, threads)), so callers can key per-worker scratch
/// or counter slots without thread-local state.
using ParallelFn = std::function<void(std::size_t index, std::size_t worker)>;

/// Run `fn(index, worker)` for every index in [0, count).  Indices are
/// claimed one at a time from an atomic cursor in ascending order, so work
/// balances when index costs vary.  With threads == 1 the indices run in
/// ascending order on the calling thread.  The first exception thrown by
/// any worker is rethrown on the caller's thread after all workers join;
/// remaining unclaimed indices are dropped.
void parallel_for(std::size_t count, std::size_t threads, const ParallelFn& fn,
                  PoolMetrics* metrics = nullptr);

/// Export pool utilization into a metrics node: `workers`, `tasks`,
/// `busy_ns`, `idle_ns`, `utilization`, plus a
/// per-worker `tasks_per_worker` histogram (imbalance shows up as spread
/// across buckets).
void describe(const PoolMetrics& pool, obs::MetricsNode& node);

}  // namespace fvc::sim
