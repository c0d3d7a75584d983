/// bench_compare — scalar-vs-batched regression harness for the grid
/// evaluation hot path.
///
/// Runs the whole-grid three-predicate scan with the scalar oracle
/// (`evaluate_region_scalar`), the batched engine (`evaluate_region`) and
/// the row-parallel entry point (`sim::evaluate_region_parallel`), checks
/// that all three produce bit-identical statistics, and writes a small JSON
/// record (BENCH_grid_eval.json by default) so the speedup is tracked in
/// version control and future PRs can detect regressions.
///
/// The record also embeds one fvc.metrics/1 document (see fvc/obs) from an
/// extra *metered* parallel pass — engine shape, candidate histograms and
/// pool utilization — taken outside the timed reps so the timings stay
/// those of the unmetered hot path.
///
/// Usage: bench_compare [out.json] [n] [grid_side] [reps]
///   defaults:          BENCH_grid_eval.json  1000  64  5
///
/// Exit status: 0 on success, 1 when the implementations disagree (the
/// differential contract is part of the harness, not just the tests).

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fvc/core/cpu_features.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/json_export.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/obs/trace.hpp"
#include "fvc/sim/parallel_region.hpp"
#include "fvc/stats/rng.hpp"
#include "bench_host.hpp"

namespace {

using namespace fvc;
using Clock = std::chrono::steady_clock;

double best_of_ms(std::size_t reps, const auto& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) {
      best = ms;
    }
  }
  return best;
}

bool same_stats(const core::RegionCoverageStats& a, const core::RegionCoverageStats& b) {
  return a.total_points == b.total_points && a.covered_1 == b.covered_1 &&
         a.necessary_ok == b.necessary_ok && a.full_view_ok == b.full_view_ok &&
         a.sufficient_ok == b.sufficient_ok && a.k_covered_ok == b.k_covered_ok &&
         a.min_max_gap == b.min_max_gap && a.max_max_gap == b.max_max_gap;
}

/// Re-indent an already-rendered JSON document so it nests as the value of
/// an outer object key (first line unchanged — it follows the key).
std::string indent_json(const std::string& doc, const std::string& pad) {
  std::string out;
  out.reserve(doc.size());
  for (std::size_t i = 0; i < doc.size(); ++i) {
    out.push_back(doc[i]);
    if (doc[i] == '\n' && i + 1 < doc.size()) {
      out += pad;
    }
  }
  while (!out.empty() && out.back() == '\n') {
    out.pop_back();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_grid_eval.json";
  const std::size_t n = argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 1000;
  const std::size_t side = argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 64;
  const std::size_t reps =
      std::max<std::size_t>(1, argc > 4 ? static_cast<std::size_t>(std::atoll(argv[4])) : 5);
  const double theta = geom::kPi / 4.0;
  const std::size_t threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());

  const core::HeterogeneousProfile profile(std::vector<core::CameraGroupSpec>{
      {0.5, 0.08, geom::kTwoPi}, {0.5, 0.12, 2.0}});
  stats::Pcg32 rng = stats::make_child_rng(20240805, n);
  const core::Network net = deploy::deploy_uniform_network(profile, n, rng);
  const core::DenseGrid grid(side);

  // The kernel variant every batched/parallel pass below dispatches to —
  // recorded so the JSON ties each timing to the ISA that produced it.
  const core::KernelVariant kernel = core::preferred_kernel();

  core::RegionCoverageStats scalar_stats;
  core::RegionCoverageStats batched_stats;
  core::RegionCoverageStats parallel_stats;
  const double scalar_ms = best_of_ms(
      reps, [&] { scalar_stats = core::evaluate_region_scalar(net, grid, theta); });
  const double batched_ms =
      best_of_ms(reps, [&] { batched_stats = core::evaluate_region(net, grid, theta); });
  const double parallel_ms = best_of_ms(reps, [&] {
    parallel_stats = sim::evaluate_region_parallel(net, grid, theta, threads);
  });

  if (!same_stats(scalar_stats, batched_stats) ||
      !same_stats(scalar_stats, parallel_stats)) {
    std::fprintf(stderr,
                 "bench_compare: FAIL — batched/parallel results differ from the "
                 "scalar oracle\n");
    return 1;
  }

  // Thread-scaling sweep at fixed work: tracks whether adding threads buys
  // anything release-over-release (row-parallel results are bit-identical
  // for any thread count, so each leg is also a differential check).
  const std::size_t sweep_threads[] = {1, 2, 4};
  double sweep_ms[std::size(sweep_threads)] = {};
  for (std::size_t i = 0; i < std::size(sweep_threads); ++i) {
    core::RegionCoverageStats sweep_stats;
    sweep_ms[i] = best_of_ms(reps, [&] {
      sweep_stats =
          sim::evaluate_region_parallel(net, grid, theta, sweep_threads[i]);
    });
    if (!same_stats(scalar_stats, sweep_stats)) {
      std::fprintf(stderr,
                   "bench_compare: FAIL — parallel results at %zu threads differ "
                   "from the scalar oracle\n",
                   sweep_threads[i]);
      return 1;
    }
  }

  // Traced re-run of the batched scan: same work with a live TraceSession,
  // so the ≤5% tracing-overhead budget is tracked run over run next to the
  // timings it taxes.  Results must stay bit-identical (tracing never
  // touches arithmetic).  In FVC_TRACING=OFF builds the emit sites are
  // stubs and the pair should time the same to noise.
  double batched_traced_ms = 0.0;
  std::uint64_t trace_events = 0;
  {
    obs::TraceSession session(1 << 16);
    session.install();
    core::RegionCoverageStats traced_stats;
    batched_traced_ms = best_of_ms(
        reps, [&] { traced_stats = core::evaluate_region(net, grid, theta); });
    const obs::TraceSession::Drained drained = session.drain();
    session.uninstall();
    trace_events = drained.events.size() + drained.evicted;
    if (!same_stats(scalar_stats, traced_stats)) {
      std::fprintf(stderr,
                   "bench_compare: FAIL — traced batched results differ from the "
                   "scalar oracle\n");
      return 1;
    }
  }
  const double trace_overhead_pct =
      batched_ms > 0.0 ? (batched_traced_ms / batched_ms - 1.0) * 100.0 : 0.0;

  // One metered pass, outside the timed reps: must still agree bit-exactly
  // (metrics collection never changes arithmetic), and its metrics tree is
  // embedded in the record below.
  obs::RunMetrics metrics;
  metrics.set_label("tool", "bench_compare");
  metrics.set_label("bench", "grid_eval_whole_grid_scan");
  core::RegionCoverageStats metered_stats;
  {
    obs::Span span(metrics.root());
    metered_stats =
        sim::evaluate_region_parallel(net, grid, theta, threads, &metrics.root());
  }
  if (!same_stats(scalar_stats, metered_stats)) {
    std::fprintf(stderr,
                 "bench_compare: FAIL — metered parallel results differ from the "
                 "scalar oracle\n");
    return 1;
  }

  const double speedup_batched = scalar_ms / batched_ms;
  const double speedup_parallel = scalar_ms / parallel_ms;
  std::printf("grid_eval whole-grid scan: n=%zu grid=%zux%zu theta=pi/4 reps=%zu\n", n,
              side, side, reps);
  std::printf("  kernel   : %s (%zu lanes)\n",
              std::string(core::kernel_name(kernel)).c_str(),
              core::kernel_lanes(kernel));
  std::printf("  scalar   : %9.3f ms\n", scalar_ms);
  std::printf("  batched  : %9.3f ms  (%.2fx)\n", batched_ms, speedup_batched);
  std::printf("  traced   : %9.3f ms  (%+.1f%% vs batched, %llu events)\n",
              batched_traced_ms, trace_overhead_pct,
              static_cast<unsigned long long>(trace_events));
  std::printf("  parallel : %9.3f ms  (%.2fx, %zu threads)\n", parallel_ms,
              speedup_parallel, threads);
  for (std::size_t i = 0; i < std::size(sweep_threads); ++i) {
    std::printf("  threads=%zu: %9.3f ms  (%.2fx)\n", sweep_threads[i], sweep_ms[i],
                scalar_ms / sweep_ms[i]);
  }

  std::ostringstream record;
  record << "{\n";
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "  \"bench\": \"grid_eval_whole_grid_scan\",\n"
                "  \"n\": %zu,\n"
                "  \"grid_side\": %zu,\n"
                "  \"theta\": \"pi/4\",\n"
                "  \"reps\": %zu,\n"
                "  \"threads\": %zu,\n"
                "  \"kernel\": \"%s\",\n"
                "  \"kernel_lanes\": %zu,\n"
                "  \"scalar_ms\": %.3f,\n"
                "  \"batched_ms\": %.3f,\n"
                "  \"parallel_ms\": %.3f,\n"
                "  \"speedup_batched\": %.2f,\n"
                "  \"speedup_parallel\": %.2f,\n"
                "  \"tracing_compiled\": %s,\n"
                "  \"batched_traced_ms\": %.3f,\n"
                "  \"trace_overhead_pct\": %.1f,\n"
                "  \"trace_events\": %llu,\n"
                "  \"results_bit_identical\": true,\n",
                n, side, reps, threads,
                std::string(core::kernel_name(kernel)).c_str(),
                core::kernel_lanes(kernel), scalar_ms, batched_ms, parallel_ms,
                speedup_batched, speedup_parallel,
                obs::kTraceEnabled ? "true" : "false", batched_traced_ms,
                trace_overhead_pct,
                static_cast<unsigned long long>(trace_events));
  record << buf;
  record << "  \"host\": " << fvc::tools::host_json() << ",\n";
  record << "  \"thread_sweep\": [\n";
  for (std::size_t i = 0; i < std::size(sweep_threads); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %zu, \"parallel_ms\": %.3f, \"speedup\": %.2f}%s\n",
                  sweep_threads[i], sweep_ms[i], scalar_ms / sweep_ms[i],
                  i + 1 < std::size(sweep_threads) ? "," : "");
    record << buf;
  }
  record << "  ],\n";
  record << "  \"metrics\": " << indent_json(obs::to_json(metrics), "  ") << "\n";
  record << "}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_compare: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  out << record.str();
  out.flush();
  if (!out) {
    std::fprintf(stderr, "bench_compare: failed writing %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
