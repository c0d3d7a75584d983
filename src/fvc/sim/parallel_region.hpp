/// \file parallel_region.hpp
/// \brief Row-parallel batched grid evaluation for single deployments.
///
/// The Monte-Carlo estimators parallelize over *trials*, so per-trial grid
/// scans stay serial.  Single-deployment workloads (the CLI tool, the CSA
/// figure benches, interactive analysis of one large network) instead want
/// parallelism *within* one grid scan.  This entry point batches the
/// `GridEvalEngine` over rows through `sim::parallel_for`: workers claim
/// one row at a time, evaluate it through one engine call
/// (`GridEvalEngine::row_stats`), and write one result slot per row.  The
/// row slots are folded in row order — so the result is bit-identical to
/// the serial scan for every thread count (the determinism contract of
/// monte_carlo.hpp, extended to the batched path; locked by
/// tests/sim/test_determinism.cpp and tests/sim/test_parallel_identity.cpp).

#pragma once

#include <cstddef>

#include "fvc/core/grid.hpp"
#include "fvc/core/network.hpp"
#include "fvc/core/region_coverage.hpp"

namespace fvc::obs {
class MetricsNode;  // fvc/obs/run_metrics.hpp
}

namespace fvc::sim {

/// Row-parallel `core::evaluate_region`.  Bit-identical to the serial
/// (and scalar) evaluation for any `threads` >= 1, whether or not metrics
/// are collected.
///
/// `metrics` (default null: no collection, no clock calls) selects the
/// metered path: identical statistics (same engine, same row fold), plus
/// a filled subtree under the node:
///   engine  — static shape (bin occupancy, build span) and the merged
///             gather counters (candidate histogram, fallbacks)
///   pool    — worker busy/idle time and task (= row) counts of the row
///             loop
///   scan    — span over the whole row scan
/// Gather counters live in per-worker slots merged in worker order; the
/// totals are order-independent sums, so the exported values are
/// deterministic for any thread count.
[[nodiscard]] core::RegionCoverageStats evaluate_region_parallel(
    const core::Network& net, const core::DenseGrid& grid, double theta,
    std::size_t threads, obs::MetricsNode* metrics = nullptr);

}  // namespace fvc::sim
