// Differential tests for the grid-eval engine's candidate index (y strips
// ordered by x cell; row slices for grid rows, x windows for off-lattice
// points).  The contract under test is the index's core promise: it only
// decides which duplicate-free *superset* of the covering cameras the
// classify kernel inspects, so every per-point direction list, every
// off-lattice `eval_point` answer and every aggregate statistic is
// bit-identical to the per-point scalar oracle (`Network::viewed_directions`,
// `full_view_covered`, `meets_*_condition`, `evaluate_region_scalar`),
// across deployment families (uniform, Matern, Gaussian cluster, strip
// hotspot), space modes, kernels and thread counts — including
// points on cell edges, on the torus seam and on the plane's edges.
// Double comparisons go through std::bit_cast<uint64_t> so even a
// sign-of-zero divergence would fail.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "fvc/core/coverage.hpp"
#include "fvc/core/cpu_features.hpp"
#include "fvc/core/full_view.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/deploy/cluster.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/sim/parallel_region.hpp"
#include "fvc/stats/distributions.hpp"
#include "fvc/stats/rng.hpp"

namespace fvc::core {
namespace {

using geom::kPi;
using geom::kTwoPi;

// Heterogeneous profile with an omnidirectional group (same shape as
// test_grid_eval_kernels.cpp) so omni and sector lanes share batches.
HeterogeneousProfile random_profile_with_omni(stats::Pcg32& rng) {
  const std::size_t u = 2 + stats::uniform_below(rng, 2);
  std::vector<CameraGroupSpec> groups(u);
  double remaining = 1.0;
  for (std::size_t y = 0; y < u; ++y) {
    CameraGroupSpec& g = groups[y];
    if (y + 1 == u) {
      g.fraction = remaining;
    } else {
      g.fraction = remaining * stats::uniform_in(rng, 0.2, 0.8);
      remaining -= g.fraction;
    }
    g.radius = stats::uniform_in(rng, 0.05, 0.35);
    g.fov = (y == 0) ? kTwoPi : stats::uniform_in(rng, 0.5, kTwoPi);
  }
  return HeterogeneousProfile(std::move(groups));
}

// The deployment families the suite sweeps.  Each is deterministic per
// seed; all use the same profile draw so only the POSITION process varies.
enum class Family { kUniform, kMatern, kGaussian, kStrip };
constexpr Family kFamilies[] = {Family::kUniform, Family::kMatern,
                                Family::kGaussian, Family::kStrip};

const char* family_name(Family f) {
  switch (f) {
    case Family::kUniform: return "uniform";
    case Family::kMatern: return "matern";
    case Family::kGaussian: return "gaussian";
    case Family::kStrip: return "strip";
  }
  return "?";
}

Network deploy_family(Family f, std::uint64_t seed) {
  stats::Pcg32 rng = stats::make_child_rng(8101, seed);
  const HeterogeneousProfile profile = random_profile_with_omni(rng);
  switch (f) {
    case Family::kUniform:
      return deploy::deploy_uniform_network(profile, 3 + stats::uniform_below(rng, 58),
                                            rng);
    case Family::kMatern: {
      deploy::ClusterConfig cfg;
      cfg.parent_intensity = 4.0;
      cfg.mean_children = 8.0;
      cfg.spread = 0.04;
      return deploy::deploy_matern_cluster_network(profile, cfg, rng);
    }
    case Family::kGaussian: {
      deploy::GaussianClusterConfig cfg;
      cfg.count = 3 + stats::uniform_below(rng, 58);
      cfg.clusters = 1 + stats::uniform_below(rng, 3);
      cfg.sigma = 0.015;
      return deploy::deploy_gaussian_cluster_network(profile, cfg, rng);
    }
    case Family::kStrip: {
      deploy::StripHotspotConfig cfg;
      cfg.count = 3 + stats::uniform_below(rng, 58);
      cfg.center = stats::uniform01(rng);
      cfg.half_width = 0.03;
      cfg.hot_fraction = 0.85;
      return deploy::deploy_strip_hotspot_network(profile, cfg, rng);
    }
  }
  return Network();
}

// The same cameras in plane mode (torus positions are already wrapped
// into [0, 1)), so every family also runs without wraparound coverage.
Network as_plane(const Network& net) {
  return Network(std::vector<Camera>(net.cameras().begin(), net.cameras().end()),
                 geom::SpaceMode::kPlane);
}

// Every sorted per-point direction list plus the whole-grid aggregate,
// flattened for comparison.
struct GridRun {
  std::vector<std::vector<double>> directions;  // per grid point, row-major
  RegionCoverageStats stats;
};

// The reference: the per-point scalar oracle.
GridRun run_oracle(const Network& net, const DenseGrid& grid, double theta) {
  GridRun run;
  for (std::size_t row = 0; row < grid.side(); ++row) {
    for (std::size_t col = 0; col < grid.side(); ++col) {
      std::vector<double> dirs = net.viewed_directions(grid.point(row, col));
      std::sort(dirs.begin(), dirs.end());
      run.directions.push_back(std::move(dirs));
    }
  }
  run.stats = evaluate_region_scalar(net, grid, theta);
  return run;
}

GridRun run_engine(const Network& net, const DenseGrid& grid, double theta,
                   KernelVariant kernel) {
  const GridEvalEngine engine(net, grid, theta, kernel);
  GridEvalScratch scratch;
  GridRun run;
  for (std::size_t row = 0; row < grid.side(); ++row) {
    for (std::size_t col = 0; col < grid.side(); ++col) {
      const std::span<const double> dirs = engine.sorted_directions(row, col, scratch);
      run.directions.emplace_back(dirs.begin(), dirs.end());
    }
  }
  run.stats = engine.evaluate(scratch);
  return run;
}

// Off-lattice probe points for an index of `cells` cells per side: every
// cell edge k/cells and its neighbours one ulp either side, the torus seam
// (0 and 1 - ulp) and the plane's edges (0 and 1), each paired with other
// probe coordinates on the other axis, plus the seam/edge corners.
std::vector<geom::Vec2> edge_probes(std::size_t cells) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> coords;
  for (std::size_t k = 0; k <= cells; ++k) {
    const double edge = static_cast<double>(k) / static_cast<double>(cells);
    for (const double v : {std::nextafter(edge, -kInf), edge, std::nextafter(edge, kInf)}) {
      if (v >= 0.0 && v <= 1.0) {
        coords.push_back(v);
      }
    }
  }
  std::vector<geom::Vec2> out;
  const std::size_t m = coords.size();
  for (std::size_t i = 0; i < m; ++i) {
    out.push_back({coords[i], coords[(7 * i + 3) % m]});
    out.push_back({coords[(5 * i + 1) % m], coords[i]});
  }
  const double seam[] = {0.0, std::nextafter(1.0, 0.0), 1.0};
  for (const double x : seam) {
    for (const double y : seam) {
      out.push_back({x, y});
    }
  }
  return out;
}

void expect_point_matches_oracle(const PointEval& got, const Network& net,
                                 const geom::Vec2& p, double theta,
                                 const std::string& what) {
  const FullViewResult want = full_view_covered(net, p, theta);
  EXPECT_EQ(got.full_view.covered, want.covered) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.full_view.max_gap),
            std::bit_cast<std::uint64_t>(want.max_gap))
      << what;
  EXPECT_EQ(got.full_view.covering_count, want.covering_count) << what;
  ASSERT_EQ(got.full_view.witness_unsafe_direction.has_value(),
            want.witness_unsafe_direction.has_value())
      << what;
  if (want.witness_unsafe_direction.has_value()) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*got.full_view.witness_unsafe_direction),
              std::bit_cast<std::uint64_t>(*want.witness_unsafe_direction))
        << what;
  }
  EXPECT_EQ(got.necessary, meets_necessary_condition(net, p, theta)) << what;
  EXPECT_EQ(got.sufficient, meets_sufficient_condition(net, p, theta)) << what;
}

void expect_stats_identical(const RegionCoverageStats& ref,
                            const RegionCoverageStats& got, const std::string& what) {
  EXPECT_EQ(ref.total_points, got.total_points) << what;
  EXPECT_EQ(ref.covered_1, got.covered_1) << what;
  EXPECT_EQ(ref.necessary_ok, got.necessary_ok) << what;
  EXPECT_EQ(ref.full_view_ok, got.full_view_ok) << what;
  EXPECT_EQ(ref.sufficient_ok, got.sufficient_ok) << what;
  EXPECT_EQ(ref.k_covered_ok, got.k_covered_ok) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.min_max_gap),
            std::bit_cast<std::uint64_t>(got.min_max_gap))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.max_max_gap),
            std::bit_cast<std::uint64_t>(got.max_max_gap))
      << what;
}

void expect_runs_identical(const GridRun& ref, const GridRun& got,
                           const std::string& what) {
  ASSERT_EQ(ref.directions.size(), got.directions.size()) << what;
  for (std::size_t p = 0; p < ref.directions.size(); ++p) {
    ASSERT_EQ(ref.directions[p].size(), got.directions[p].size())
        << what << " point=" << p;
    for (std::size_t j = 0; j < ref.directions[p].size(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ref.directions[p][j]),
                std::bit_cast<std::uint64_t>(got.directions[p][j]))
          << what << " point=" << p << " dir=" << j;
    }
  }
  expect_stats_identical(ref.stats, got.stats, what);
}

// The full differential sweep: deployment families x space modes x kernel
// variants (scalar, every supported alternative) against the per-point
// scalar oracle, at a theta that keeps the full-view predicate
// non-trivial — every grid point's direction list and the aggregate, plus
// off-lattice `eval_point` (the x-window path, no row slice) on cell
// edges +- 1 ulp, the torus seam and the plane's edges.  8 seeds per
// family keep cluster geometry varied (wrap-straddling clusters, empty
// bands, single-cluster piles) while the suite stays fast.
TEST(CandidateIndex, BitIdenticalAcrossFamiliesIndexesAndKernels) {
  const DenseGrid grid(6);
  const double theta = kPi / 4.0;
  for (const Family fam : kFamilies) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const Network torus = deploy_family(fam, seed);
      const Network plane = as_plane(torus);
      for (const Network* net : {&torus, &plane}) {
        const GridRun ref = run_oracle(*net, grid, theta);
        for (std::size_t kv = 0; kv < kKernelVariantCount; ++kv) {
          const auto kernel = static_cast<KernelVariant>(kv);
          if (!kernel_supported(kernel)) {
            continue;
          }
          const std::string what = std::string("family=") + family_name(fam) +
                                   " seed=" + std::to_string(seed) + " plane=" +
                                   std::to_string(net == &plane) + " kernel=" +
                                   std::string(kernel_name(kernel));
          expect_runs_identical(ref, run_engine(*net, grid, theta, kernel), what);
          const GridEvalEngine engine(*net, grid, theta, kernel);
          GridEvalScratch scratch;
          for (const geom::Vec2& p : edge_probes(engine.cells_per_side())) {
            expect_point_matches_oracle(engine.eval_point(p, scratch), *net, p, theta,
                                        what + " p=(" + std::to_string(p.x) + "," +
                                            std::to_string(p.y) + ")");
          }
        }
      }
    }
  }
}

// The parallel scan reuses one engine (and each worker's row-slice
// scratch) across rows; every thread count must still fold to the scalar
// oracle's result bitwise.  Rows interleave across workers, so every
// multi-thread run rebuilds slices on workers that last saw another row.
TEST(CandidateIndex, ParallelScansBitIdenticalAcrossThreadsAndGrains) {
  constexpr std::size_t kThreadCounts[] = {1, 2, 3, 4, 7};
  const DenseGrid grid(16);
  const double theta = kPi / 3.0;
  for (const Family fam : {Family::kUniform, Family::kGaussian, Family::kStrip}) {
    const Network net = deploy_family(fam, 3);
    const RegionCoverageStats ref = evaluate_region_scalar(net, grid, theta);
    for (const std::size_t threads : kThreadCounts) {
      const RegionCoverageStats got =
          sim::evaluate_region_parallel(net, grid, theta, threads);
      expect_stats_identical(ref, got,
                             std::string("family=") + family_name(fam) +
                                 " threads=" + std::to_string(threads));
    }
  }
}

// candidates(p) must be a duplicate-free superset of the cameras covering
// p — the structural half of the bit-identity argument (the kernel's
// exact tests do the rest) — at grid points and at the off-lattice edge
// and seam probes, in both space modes.
TEST(CandidateIndex, CandidatesAreDuplicateFreeSupersets) {
  const DenseGrid grid(9);
  for (const Family fam : kFamilies) {
    const Network torus = deploy_family(fam, 5);
    const Network plane = as_plane(torus);
    for (const Network* net : {&torus, &plane}) {
      const GridEvalEngine engine(*net, grid, kPi / 4.0);
      GridEvalScratch scratch;
      std::vector<geom::Vec2> probes = edge_probes(engine.cells_per_side());
      for (std::size_t row = 0; row < grid.side(); ++row) {
        for (std::size_t col = 0; col < grid.side(); ++col) {
          probes.push_back(grid.point(row, col));
          // The kernel-facing row-slice span is a superset too.
          EXPECT_LE(engine.point_candidate_count(row, col, scratch), net->size());
        }
      }
      for (const geom::Vec2& p : probes) {
        const std::span<const std::uint32_t> cand = engine.candidates(p);
        std::vector<std::uint32_t> sorted(cand.begin(), cand.end());
        std::sort(sorted.begin(), sorted.end());
        const std::string what = std::string("family=") + family_name(fam) +
                                 " plane=" + std::to_string(net == &plane) + " p=(" +
                                 std::to_string(p.x) + "," + std::to_string(p.y) + ")";
        EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
            << "duplicate candidate, " << what;
        for (std::uint32_t i = 0; i < net->size(); ++i) {
          if (covers(net->cameras()[i], p, net->mode())) {
            EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(), i))
                << "covering camera " << i << " missing, " << what;
          }
        }
      }
    }
  }
}

// Sizing diagnostics: the pre-cap target, the clamp bit, and their export.
// The 4 * grid_side cap binds on a coarse grid.
TEST(CandidateIndex, CellCapEnvClampsAndIsReported) {
  stats::Pcg32 rng = stats::make_child_rng(8103, 0);
  const HeterogeneousProfile profile(
      std::vector<CameraGroupSpec>{{1.0, 0.05, kTwoPi}});
  const Network net = deploy::deploy_uniform_network(profile, 50, rng);

  // Unclamped: r = 0.05 targets 60 cells/side, under the 4 * 32 cap.
  {
    const GridEvalEngine engine(net, DenseGrid(32), kPi / 4.0);
    EXPECT_EQ(engine.cells_target(), 60u);
    EXPECT_EQ(engine.cells_per_side(), 60u);
    EXPECT_FALSE(engine.cells_clamped());
    obs::MetricsNode node("engine");
    engine.describe(node);
    EXPECT_DOUBLE_EQ(node.counter("cells_target"), 60.0);
    EXPECT_DOUBLE_EQ(node.counter("cells_clamped"), 0.0);
    EXPECT_GT(node.counter("index_bytes"), 0.0);
  }
  // A 4x4 grid caps the index at 16 cells/side and raises the clamp bit.
  {
    const GridEvalEngine engine(net, DenseGrid(4), kPi / 4.0);
    EXPECT_EQ(engine.cells_target(), 60u);
    EXPECT_EQ(engine.cells_per_side(), 16u);
    EXPECT_TRUE(engine.cells_clamped());
    obs::MetricsNode node("engine");
    engine.describe(node);
    EXPECT_DOUBLE_EQ(node.counter("cells_target"), 60.0);
    EXPECT_DOUBLE_EQ(node.counter("cells_clamped"), 1.0);
  }
}

// Beyond the historical clamp: a small-radius network must size past 256
// cells per side now that the bin scratch is heap-allocated.
TEST(CandidateIndex, ResolutionExceedsHistoricalClamp) {
  stats::Pcg32 rng = stats::make_child_rng(8104, 0);
  const HeterogeneousProfile profile(
      std::vector<CameraGroupSpec>{{1.0, 0.008, kTwoPi}});
  const Network net = deploy::deploy_uniform_network(profile, 200, rng);
  const DenseGrid grid(128);  // cap = 4 * 128 = 512 > 375 target
  const GridEvalEngine engine(net, grid, kPi / 4.0);
  EXPECT_EQ(engine.cells_target(), 375u);
  EXPECT_EQ(engine.cells_per_side(), 375u);
  EXPECT_FALSE(engine.cells_clamped());
  EXPECT_GT(engine.cells_per_side(), 256u);
}

}  // namespace
}  // namespace fvc::core
