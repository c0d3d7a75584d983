#include "fvc/sim/parallel_region.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "fvc/core/grid_eval.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/sim/thread_pool.hpp"

namespace fvc::sim {

core::RegionCoverageStats evaluate_region_parallel(const core::Network& net,
                                                   const core::DenseGrid& grid,
                                                   double theta, std::size_t threads,
                                                   obs::MetricsNode* metrics) {
  const core::GridEvalEngine engine(net, grid, theta);
  const std::size_t rows = engine.rows();
  // Either empty (metrics off) or one slot per worker id the pool can hand
  // out — the totals are order-independent sums, so merging the worker
  // slots in worker order is deterministic even though which rows a worker
  // ran is not.
  std::vector<core::GridEvalCounters> counter_slots(
      metrics != nullptr ? std::clamp<std::size_t>(threads, 1, rows) : 0);
  std::vector<core::GridRowStats> row_stats(rows);
  PoolMetrics pool;
  {
    std::optional<obs::Span> scan_span;
    if (metrics != nullptr) {
      scan_span.emplace(metrics->child("scan"));
    }
    parallel_for(
        rows, threads,
        [&](std::size_t row, std::size_t worker) {
          // The scratch also carries the candidate index's row-slice cache,
          // built once per (engine generation, row) and shared by the row's
          // points, with no cross-thread sharing.
          thread_local core::GridEvalScratch scratch;
          scratch.counters = counter_slots.empty() ? nullptr : &counter_slots[worker];
          row_stats[row] = engine.row_stats(row, scratch);
          scratch.counters = nullptr;  // scratch outlives this call (thread_local)
        },
        metrics != nullptr ? &pool : nullptr);
  }
  // Fold in row order: exactly the serial scan's reduction, whichever
  // worker ran which row.
  core::RegionCoverageStats stats;
  stats.total_points = grid.size();
  for (std::size_t row = 0; row < rows; ++row) {
    core::fold_row_stats(stats, row_stats[row], row == 0);
  }
  if (metrics != nullptr) {
    obs::MetricsNode& engine_node = metrics->child("engine");
    engine.describe(engine_node);
    core::GridEvalCounters merged;
    for (const core::GridEvalCounters& c : counter_slots) {
      merged.merge(c);
    }
    merged.describe(engine_node);
    describe(pool, metrics->child("pool"));
  }
  return stats;
}

}  // namespace fvc::sim
