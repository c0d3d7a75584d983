// Differential tests across the grid-eval kernel variants (cpu_features.hpp:
// scalar / generic / avx2 / neon).  The contract under test is the dispatch
// layer's core promise: constructing an engine with any *supported* variant
// changes only speed — every per-point direction list and every aggregate
// statistic is bit-identical to the scalar variant (which test_grid_eval.cpp
// in turn proves identical to the coverage oracles).  Every supported
// variant is constructed explicitly, so each host tests all the variants it
// can run.  Double comparisons go through std::bit_cast<uint64_t> so even a
// sign-of-zero or NaN-payload divergence would fail.  Constructing with an
// *unsupported* variant must throw, never silently fall back.
// The file also holds the approximate-direction kernel's error-bound test
// (every compiled backend) and the adversarial-geometry families that
// pin every variant's filtered direction pipeline to the scalar oracles.

#include "fvc/core/grid_eval.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fvc/core/coverage.hpp"
#include "fvc/core/cpu_features.hpp"
#include "fvc/core/full_view.hpp"
#include "fvc/core/grid_eval_kernel.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/geometry/sector.hpp"
#include "fvc/stats/distributions.hpp"
#include "fvc/stats/rng.hpp"

namespace fvc::core {
namespace {

using geom::kPi;
using geom::kTwoPi;

std::vector<KernelVariant> all_variants() {
  std::vector<KernelVariant> out;
  for (std::size_t i = 0; i < kKernelVariantCount; ++i) {
    out.push_back(static_cast<KernelVariant>(i));
  }
  return out;
}

// Random heterogeneous profile (same shape as test_grid_eval.cpp), with an
// omnidirectional group forced in: fov = 2*pi exercises the kernel's omni
// bit-mask lanes alongside sector lanes in the same batch.
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

// Evaluate `net` on an engine running variant `v`: every sorted per-point
// direction list plus the whole-grid aggregate, flattened for comparison.
struct VariantRun {
  std::vector<std::vector<double>> directions;  // per grid point, row-major
  RegionCoverageStats stats;
};

VariantRun run_variant(KernelVariant v, const Network& net, const DenseGrid& grid,
                       double theta) {
  const GridEvalEngine engine(net, grid, theta, v);
  EXPECT_EQ(engine.kernel(), v);
  GridEvalScratch scratch;
  VariantRun run;
  for (std::size_t row = 0; row < grid.side(); ++row) {
    for (std::size_t col = 0; col < grid.side(); ++col) {
      const std::span<const double> dirs = engine.sorted_directions(row, col, scratch);
      run.directions.emplace_back(dirs.begin(), dirs.end());
    }
  }
  run.stats = engine.evaluate(scratch);
  return run;
}

// Bitwise equality of two variant runs (ASSERTs on first divergence).
void expect_runs_identical(const VariantRun& ref, const VariantRun& got,
                           KernelVariant v, double theta) {
  ASSERT_EQ(ref.directions.size(), got.directions.size());
  for (std::size_t p = 0; p < ref.directions.size(); ++p) {
    ASSERT_EQ(ref.directions[p].size(), got.directions[p].size())
        << "kernel=" << kernel_name(v) << " theta=" << theta << " point=" << p;
    for (std::size_t j = 0; j < ref.directions[p].size(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ref.directions[p][j]),
                std::bit_cast<std::uint64_t>(got.directions[p][j]))
          << "kernel=" << kernel_name(v) << " theta=" << theta << " point=" << p
          << " dir=" << j;
    }
  }
  EXPECT_EQ(ref.stats.total_points, got.stats.total_points);
  EXPECT_EQ(ref.stats.covered_1, got.stats.covered_1);
  EXPECT_EQ(ref.stats.necessary_ok, got.stats.necessary_ok);
  EXPECT_EQ(ref.stats.full_view_ok, got.stats.full_view_ok);
  EXPECT_EQ(ref.stats.sufficient_ok, got.stats.sufficient_ok);
  EXPECT_EQ(ref.stats.k_covered_ok, got.stats.k_covered_ok);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.stats.min_max_gap),
            std::bit_cast<std::uint64_t>(got.stats.min_max_gap));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.stats.max_max_gap),
            std::bit_cast<std::uint64_t>(got.stats.max_max_gap));
}

// Run every supported variant against the scalar-variant reference.
void expect_all_variants_identical(const Network& net, const DenseGrid& grid,
                                   double theta) {
  const VariantRun ref = run_variant(KernelVariant::kScalar, net, grid, theta);
  for (const KernelVariant v : all_variants()) {
    if (v == KernelVariant::kScalar || !kernel_supported(v)) {
      continue;
    }
    const VariantRun got = run_variant(v, net, grid, theta);
    expect_runs_identical(ref, got, v, theta);
  }
}

// The build always supports scalar and generic; vector variants depend on
// the host.  This documents the baseline every host tests.
TEST(GridEvalKernels, ScalarAndGenericAlwaysSupported) {
  EXPECT_TRUE(kernel_supported(KernelVariant::kScalar));
  EXPECT_TRUE(kernel_supported(KernelVariant::kGeneric));
  EXPECT_TRUE(kernel_supported(preferred_kernel()));
}

// 12 seeds x 3 thetas of randomized heterogeneous torus deployments with a
// guaranteed omnidirectional group.  n = 3..60 keeps many cells at 1-3
// candidates — counts not divisible by the 4-lane width — so the scalar
// remainder tail runs in the same pass as full batches.
TEST(GridEvalKernels, RandomizedDeploymentsBitIdenticalAcrossVariants) {
  constexpr double thetas[] = {kPi / 6.0, kPi / 4.0, kPi};
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    stats::Pcg32 rng = stats::make_child_rng(7001, seed);
    const HeterogeneousProfile profile = random_profile_with_omni(rng);
    const std::size_t n = 3 + stats::uniform_below(rng, 58);
    const Network net = deploy::deploy_uniform_network(profile, n, rng);
    const DenseGrid grid(6);
    for (const double theta : thetas) {
      expect_all_variants_identical(net, grid, theta);
    }
  }
}

// A sparse network on a fine grid leaves most engine cells with zero
// candidates: the kernels must agree on (and survive) empty spans.
TEST(GridEvalKernels, SparseNetworkWithEmptyCells) {
  stats::Pcg32 rng = stats::make_child_rng(7002, 0);
  const HeterogeneousProfile profile(
      std::vector<CameraGroupSpec>{{1.0, 0.05, kTwoPi}});
  const Network net = deploy::deploy_uniform_network(profile, 2, rng);
  const DenseGrid grid(8);
  expect_all_variants_identical(net, grid, kPi / 4.0);
  // Fully empty network too.
  expect_all_variants_identical(Network(), grid, kPi / 4.0);
}

// Cell candidate counts 1..9 (every remainder class mod 4, plus counts
// below one batch): a single-cell-dominated network via one tight cluster.
TEST(GridEvalKernels, RemainderTailCountsAgree) {
  for (std::size_t n = 1; n <= 9; ++n) {
    std::vector<Camera> cams;
    for (std::size_t i = 0; i < n; ++i) {
      Camera c;
      const double a = kTwoPi * static_cast<double>(i) / static_cast<double>(n);
      c.position = {0.5 + 0.02 * std::cos(a), 0.5 + 0.02 * std::sin(a)};
      c.orientation = a;
      c.radius = 0.3;
      c.fov = (i % 2 == 0) ? kTwoPi : 1.5;
      cams.push_back(c);
    }
    const Network net(std::move(cams), geom::SpaceMode::kTorus);
    const DenseGrid grid(5);
    expect_all_variants_identical(net, grid, kPi / 3.0);
  }
}

// Constructing an engine with a variant the build/CPU cannot execute must
// throw std::invalid_argument, never fall back silently.  On every host at
// least one of avx2/neon is unsupported, so this always exercises the throw.
TEST(GridEvalKernels, UnsupportedPinThrows) {
  const Network net;
  const DenseGrid grid(4);
  bool saw_unsupported = false;
  for (const KernelVariant v : all_variants()) {
    if (kernel_supported(v)) {
      continue;
    }
    saw_unsupported = true;
    EXPECT_THROW(GridEvalEngine(net, grid, kPi / 4.0, v), std::invalid_argument)
        << "kernel=" << kernel_name(v);
  }
  EXPECT_TRUE(saw_unsupported)
      << "expected at least one of avx2/neon to be unsupported on this host";
}

// Dispatch is the widest supported variant, and a default-constructed
// engine runs it: on an AVX2 host that is avx2, so every default engine in
// the suite exercises the AVX2 kernel.
TEST(GridEvalKernels, DefaultEngineRunsTheWidestSupportedVariant) {
  KernelVariant widest = KernelVariant::kGeneric;
  for (const KernelVariant v : {KernelVariant::kAvx2, KernelVariant::kNeon}) {
    if (kernel_supported(v)) {
      widest = v;
    }
  }
  EXPECT_EQ(preferred_kernel(), widest);
  EXPECT_NE(preferred_kernel(), KernelVariant::kScalar);
  const Network net;
  const DenseGrid grid(4);
  const GridEvalEngine engine(net, grid, kPi / 4.0);
  EXPECT_EQ(engine.kernel(), preferred_kernel());
}

// Stable names and lane widths.
TEST(GridEvalKernels, NamesRoundTripAndLanes) {
  EXPECT_EQ(kernel_name(KernelVariant::kScalar), "scalar");
  EXPECT_EQ(kernel_name(KernelVariant::kGeneric), "generic");
  EXPECT_EQ(kernel_name(KernelVariant::kAvx2), "avx2");
  EXPECT_EQ(kernel_name(KernelVariant::kNeon), "neon");
  EXPECT_EQ(kernel_lanes(KernelVariant::kScalar), 1u);
  EXPECT_EQ(kernel_lanes(KernelVariant::kGeneric), 4u);
  EXPECT_EQ(kernel_lanes(KernelVariant::kAvx2), 4u);
  EXPECT_EQ(kernel_lanes(KernelVariant::kNeon), 4u);
}

// ---------------------------------------------------------------------------
// Approximate-direction kernel: error bound on every compiled backend.

struct DirectionBackend {
  const char* name;
  detail::DirectionsFn fn;
};

std::vector<DirectionBackend> direction_backends() {
  std::vector<DirectionBackend> out{{"generic", &detail::approx_directions_generic}};
#if defined(FVC_KERNEL_AVX2)
  if (kernel_supported(KernelVariant::kAvx2)) {
    out.push_back({"avx2", &detail::approx_directions_avx2});
  }
#endif
#if defined(FVC_KERNEL_NEON)
  out.push_back({"neon", &detail::approx_directions_neon});
#endif
  return out;
}

// The exact emission the kernel approximates (the engine's and oracle's
// atan2(dy, dx) + pi with the 2*pi -> 0 wrap).
double exact_emission(double dx, double dy) {
  const double v = std::atan2(dy, dx) + kPi;
  return v >= kTwoPi ? 0.0 : v;
}

// Circular distance on the circle of circumference kTwoPi.
double circle_distance(double a, double b) {
  const double d = std::abs(a - b);
  return std::min(d, kTwoPi - d);
}

// Seeded sweep of >= 10^6 displacements plus the hand-picked hard cases:
// axes, diagonals, the octant-reduction threshold |y|/|x| = tan(pi/8)
// +- a few ulps, signed zeros (the seam: dy = +-0 with dx < 0), and tiny
// components down to subnormals.
std::vector<std::pair<double, double>> direction_inputs() {
  std::vector<std::pair<double, double>> in;
  const double signs[] = {1.0, -1.0};
  for (const double sx : signs) {
    for (const double sy : signs) {
      in.emplace_back(sx * 1.0, sy * 0.0);
      in.emplace_back(sx * 0.0, sy * 1.0);
      in.emplace_back(sx * 0.25, sy * 0.25);
      in.emplace_back(sx * 1e-3, sy * 1e-3);
      in.emplace_back(sx * 1e-300, sy * 1.0);
      in.emplace_back(sx * 1.0, sy * 1e-300);
      in.emplace_back(sx * 5e-324, sy * 0.5);
      in.emplace_back(sx * 0.5, sy * 5e-324);
      in.emplace_back(sx * 1e-160, sy * 1e-160);
      in.emplace_back(sx * 3e-155, sy * 1e-155);
      // |y| / |x| straddling tan(pi/8) in both octant orders.
      double r = 0.41421356237309503;
      for (int k = 0; k < 4; ++k) {
        r = std::nextafter(r, 0.0);
      }
      for (int k = 0; k < 9; ++k, r = std::nextafter(r, 1.0)) {
        in.emplace_back(sx * 1.0, sy * r);
        in.emplace_back(sx * r, sy * 1.0);
        in.emplace_back(sx * 0.1, sy * (0.1 * r));
      }
    }
  }
  stats::Pcg32 rng = stats::make_child_rng(7010, 0);
  for (int i = 0; i < 1'000'000; ++i) {
    const double phi = stats::uniform_in(rng, -kPi, kPi);
    const double mag = std::pow(10.0, stats::uniform_in(rng, -8.0, 0.0));
    in.emplace_back(mag * std::cos(phi), mag * std::sin(phi));
  }
  return in;
}

TEST(ApproxDirections, ErrorWithinAnEighthOfTheBoundOnEveryBackend) {
  const std::vector<std::pair<double, double>> in = direction_inputs();
  const std::size_t n = in.size();
  const std::size_t padded = (n + 3) & ~std::size_t{3};
  std::vector<double> xs(padded, 1.0);
  std::vector<double> ys(padded, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = in[i].first;
    ys[i] = in[i].second;
  }
  std::vector<double> reference;
  for (const DirectionBackend& backend : direction_backends()) {
    std::vector<double> out(padded, -1.0);
    backend.fn(xs.data(), ys.data(), n, out.data());
    double worst = 0.0;
    std::size_t worst_at = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_GE(out[i], 0.0) << backend.name << " i=" << i;
      ASSERT_LT(out[i], kTwoPi) << backend.name << " i=" << i;
      const double err = circle_distance(out[i], exact_emission(xs[i], ys[i]));
      if (err > worst) {
        worst = err;
        worst_at = i;
      }
    }
    EXPECT_LE(worst, detail::kDirectionEps / 8.0)
        << backend.name << " worst at (" << xs[worst_at] << ", " << ys[worst_at] << ")";
    // Same IEEE operation sequence on every backend: same bits.
    if (reference.empty()) {
      reference = out;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(reference[i]),
                  std::bit_cast<std::uint64_t>(out[i]))
            << backend.name << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Adversarial geometry: every variant against the scalar oracles.

constexpr std::size_t kAdvSide = 4;  // grid spacing 0.25
constexpr double kAdvReach = 0.05;   // camera offset from its point
// Radius covers the camera's own point only (neighbours are >= 0.2 away).
constexpr double kAdvRadius = 0.075;

Camera omni_at(geom::Vec2 pos) {
  Camera c;
  c.position = pos;
  c.radius = kAdvRadius;
  c.fov = kTwoPi;
  return c;
}

// A camera near p + r * (cos target, sin target) — viewed direction
// `target` from p — nudged by whole ulps in x and y until accept(e) holds
// for its realized emission e at p (the oracle's own computation); the
// closest to `target` when none does.  An omni
// camera, or with `sector` a 1-radian sector camera facing p.
template <class Accept>
Camera aimed_camera(const geom::Vec2& p, double target, double r, bool sector,
                    Accept&& accept) {
  Camera base = omni_at({p.x + r * std::cos(target), p.y + r * std::sin(target)});
  if (sector) {
    base.fov = 1.0;
    base.orientation = geom::normalize_angle(target + kPi);
  }
  Camera best = base;
  double best_err = std::numeric_limits<double>::infinity();
  constexpr int kNudge = 12;
  double x = base.position.x;
  for (int i = 0; i < kNudge; ++i) {
    x = std::nextafter(x, -1.0);
  }
  for (int i = -kNudge; i <= kNudge; ++i, x = std::nextafter(x, 2.0)) {
    double y = base.position.y;
    for (int j = 0; j < kNudge; ++j) {
      y = std::nextafter(y, -1.0);
    }
    for (int j = -kNudge; j <= kNudge; ++j, y = std::nextafter(y, 2.0)) {
      Camera c = base;
      c.position = {x, y};
      const std::optional<double> e = viewed_direction_if_covered(c, p);
      if (!e) {
        continue;
      }
      if (accept(*e)) {
        return c;
      }
      const double err = circle_distance(*e, target);
      if (err < best_err) {
        best_err = err;
        best = c;
      }
    }
  }
  return best;
}

Camera aimed_at(const geom::Vec2& p, double target, bool sector,
                double reach = kAdvReach) {
  return aimed_camera(p, target, reach, sector,
                      [target](double e) { return e == target; });
}

// Every arc boundary (starts and ends) of both partitions of theta.
std::vector<double> arc_boundaries(double theta) {
  std::vector<double> out;
  for (const double w : {2.0 * theta, theta}) {
    for (const geom::Arc& arc : geom::sector_partition(w)) {
      out.push_back(arc.start);
      out.push_back(arc.end());
    }
  }
  return out;
}

// Family 1: cameras due E/N/W/S of every point (dx or dy exactly 0), the
// seam (dy = 0 with dx < 0, emission exactly 0, and dy = -+1 ulp either
// side of it), coincident directions from collinear cameras, and a camera
// on the point itself.
std::vector<Camera> axis_family(const DenseGrid& grid) {
  std::vector<Camera> cams;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const geom::Vec2 p = grid.point(i);
    const double r = kAdvReach;
    cams.push_back(omni_at({p.x + r, p.y}));
    cams.push_back(omni_at({p.x, p.y + r}));
    cams.push_back(omni_at({p.x - r, p.y}));
    cams.push_back(omni_at({p.x, p.y - r}));
    cams.push_back(omni_at({p.x + r, std::nextafter(p.y, 1.0)}));
    cams.push_back(omni_at({p.x + r, std::nextafter(p.y, 0.0)}));
    cams.push_back(omni_at({p.x + 0.5 * r, p.y}));
    cams.push_back(omni_at({p.x + 0.5 * r, p.y + 0.5 * r}));
    cams.push_back(omni_at({p.x + r, p.y + r}));
    if (i % 2 == 0) {
      cams.push_back(omni_at(p));
    }
  }
  return cams;
}

// Family 2: directions on every arc boundary and one ulp either side of
// it, in a per-point pattern (all three, or only one of them) so some
// arcs are hit only by a boundary direction and some are missed by one
// ulp.
std::vector<Camera> arc_boundary_family(const DenseGrid& grid, double theta) {
  std::vector<Camera> cams;
  const std::vector<double> bounds = arc_boundaries(theta);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const geom::Vec2 p = grid.point(i);
    for (std::size_t b = 0; b < bounds.size(); ++b) {
      const double s = bounds[b];
      const double below = s == 0.0 ? std::nextafter(kTwoPi, 0.0) : std::nextafter(s, 0.0);
      const double targets[] = {below, s, std::nextafter(s, kTwoPi)};
      const std::size_t pattern = (i + b) % 4;
      for (std::size_t t = 0; t < 3; ++t) {
        if (pattern == 0 || pattern == t + 1) {
          cams.push_back(aimed_at(p, targets[t], (b + t) % 2 == 1));
        }
      }
    }
  }
  return cams;
}

// Family 3: one partition per point (2*theta at even points, theta at odd
// ones) with every arc hit at its midpoint except one victim arc, which
// gets a single probe direction: one ulp outside its start or end, on its
// start or end, or — for T_k when it ends past 2*pi — just past the seam.
// Every arc midpoint misses every other arc (T_k's and T_1's midpoints
// lie outside the extra arc, which sits over the remainder), so the probe
// alone decides the victim.  Victims are T_k, the last arc (the extra arc
// when there is one) and T_1.
std::vector<Camera> victim_arc_family(const DenseGrid& grid, double theta) {
  std::vector<Camera> cams;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const geom::Vec2 p = grid.point(i);
    const double w = i % 2 == 0 ? 2.0 * theta : theta;
    const std::vector<geom::Arc> arcs = geom::sector_partition(w);
    const std::size_t k = geom::full_sector_count(kTwoPi, w);
    const std::size_t j = i / 2;
    const std::size_t victim = j < 2 ? k - 1 : (j < 6 ? arcs.size() - 1 : 0);
    for (std::size_t a = 0; a < arcs.size(); ++a) {
      if (a != victim) {
        cams.push_back(aimed_at(p, arcs[a].bisector(), a % 2 == 1));
      }
    }
    const geom::Arc& arc = arcs[victim];
    const double start = arc.start;
    const double end = arc.end();
    const double wrapped = arc.start + arc.width - kTwoPi;  // > 0: ends past 2*pi
    double probe = 0.0;
    switch (j) {
      case 0:
        probe = wrapped > 0.0 ? 0.5 * wrapped + detail::kDirectionEps : end;
        break;
      case 1:
      case 3:
        probe = start;
        break;
      case 2:
      case 6:
        probe = start == 0.0 ? std::nextafter(kTwoPi, 0.0) : std::nextafter(start, 0.0);
        break;
      case 4:
        probe = end;
        break;
      default:
        probe = std::nextafter(end, kTwoPi);
        break;
    }
    cams.push_back(aimed_at(p, probe, j % 2 == 1));
  }
  return cams;
}

// The oracle's gap from direction u ccw to v (interior or wrap formula).
double oracle_gap(double u, double v) {
  return v > u ? v - u : kTwoPi - (u - v);
}

// Family 4: max gaps of exactly 2*theta and 2*theta +- 1 ulp — some as
// the wrap gap across the seam — plus, at every other point, a second
// interior gap of exactly the same width (the oracle's tie rule picks the
// wrap gap, else the first).
std::vector<Camera> exact_gap_family(const DenseGrid& grid, double theta) {
  std::vector<Camera> cams;
  const double limit = 2.0 * theta;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const geom::Vec2 p = grid.point(i);
    double gap = limit;
    if (i % 3 == 0) {
      gap = std::nextafter(limit, 0.0);
    } else if (i % 3 == 2) {
      gap = std::nextafter(limit, 10.0);
    }
    // Most gaps open low enough that both endpoints share the gap's
    // binade, so a difference of exactly `gap` is representable; some open
    // across the seam; some at an octant midpoint (2k + 1) * pi / 8, where
    // the direction kernel's octant reduction switches branch and its
    // error jumps sign.
    const double binade_top = std::exp2(std::floor(std::log2(limit)) + 1.0);
    double start = (0.1 + 0.05 * static_cast<double>(i % 3)) * (binade_top - limit);
    if (i % 4 == 1) {
      start = kTwoPi - 0.5 * limit;
    } else if (i % 4 == 3) {
      start = static_cast<double>(2 * (i / 4) + 1) * kPi / 8.0;
    }
    const Camera c1 = aimed_at(p, geom::normalize_angle(start), false);
    const double e1 = *viewed_direction_if_covered(c1, p);
    cams.push_back(c1);
    const Camera c2 = aimed_camera(p, geom::normalize_angle(e1 + gap), kAdvReach, true,
                                   [&](double e) { return oracle_gap(e1, e) == gap; });
    const double e2 = *viewed_direction_if_covered(c2, p);
    cams.push_back(c2);
    // Twins one ulp inside each gap endpoint, at a different reach: the
    // exact gap is between the twins, the approximate endpoints are
    // within a few ulps of both.
    cams.push_back(aimed_at(p, std::nextafter(e1, 10.0), false, 0.6 * kAdvReach));
    cams.push_back(aimed_at(p, std::nextafter(e2, 0.0), true, 0.6 * kAdvReach));
    const double width = oracle_gap(e1, e2);
    double last = e2;
    if (i % 2 == 0 && e2 + width < kTwoPi - 0.5) {
      const Camera c3 =
          aimed_camera(p, e2 + width, kAdvReach, false,
                       [&](double e) { return e > e2 && e - e2 == width; });
      cams.push_back(c3);
      last = *viewed_direction_if_covered(c3, p);
    }
    // Fill the rest of the circle (last -> e1) with gaps of <= 0.8 * limit.
    const double rest = oracle_gap(last, e1);
    const auto fills = static_cast<std::size_t>(std::ceil(rest / (0.8 * limit)));
    for (std::size_t f = 1; f < fills; ++f) {
      const double dir = geom::normalize_angle(
          last + rest * static_cast<double>(f) / static_cast<double>(fills));
      cams.push_back(aimed_at(p, dir, f % 2 == 0));
    }
  }
  return cams;
}

void expect_same_full_view(const FullViewResult& want, const FullViewResult& got,
                           const std::string& where) {
  EXPECT_EQ(want.covered, got.covered) << where;
  EXPECT_EQ(want.covering_count, got.covering_count) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.max_gap),
            std::bit_cast<std::uint64_t>(got.max_gap))
      << where;
  ASSERT_EQ(want.witness_unsafe_direction.has_value(),
            got.witness_unsafe_direction.has_value())
      << where;
  if (want.witness_unsafe_direction) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*want.witness_unsafe_direction),
              std::bit_cast<std::uint64_t>(*got.witness_unsafe_direction))
        << where;
  }
}

// Every predicate entry point of one engine running `v` against the scalar
// oracles, bit for bit.  Returns the exact atan2 calls the decision-only
// paths (point_necessary / point_sufficient / row_events / row_all_*)
// made: only directions near a decision boundary reach atan2 there.
std::uint64_t expect_engine_matches_oracles(KernelVariant v, const Network& net,
                                            const DenseGrid& grid, double theta,
                                            const std::string& family) {
  const GridEvalEngine engine(net, grid, theta, v);
  const std::string tag = family + " kernel=" + std::string(kernel_name(v)) +
                          " theta=" + std::to_string(theta);
  GridEvalScratch scratch;
  GridEvalCounters decisions;
  GridEvalScratch decide;
  decide.counters = &decisions;

  const RegionCoverageStats want = evaluate_region_scalar(net, grid, theta);
  const RegionCoverageStats got = engine.evaluate(scratch);
  EXPECT_EQ(want.covered_1, got.covered_1) << tag;
  EXPECT_EQ(want.necessary_ok, got.necessary_ok) << tag;
  EXPECT_EQ(want.full_view_ok, got.full_view_ok) << tag;
  EXPECT_EQ(want.sufficient_ok, got.sufficient_ok) << tag;
  EXPECT_EQ(want.k_covered_ok, got.k_covered_ok) << tag;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.min_max_gap),
            std::bit_cast<std::uint64_t>(got.min_max_gap))
      << tag;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.max_max_gap),
            std::bit_cast<std::uint64_t>(got.max_max_gap))
      << tag;

  for (std::size_t row = 0; row < grid.side(); ++row) {
    bool all_nec = true;
    bool all_fv = true;
    bool all_suf = true;
    for (std::size_t col = 0; col < grid.side(); ++col) {
      const geom::Vec2 p = grid.point(row, col);
      const std::string where = tag + " row=" + std::to_string(row) +
                                " col=" + std::to_string(col);
      const FullViewResult fv = full_view_covered(net, p, theta);
      const bool nec = meets_necessary_condition(net, p, theta);
      const bool suf = meets_sufficient_condition(net, p, theta);
      all_nec = all_nec && nec;
      all_fv = all_fv && fv.covered;
      all_suf = all_suf && suf;
      expect_same_full_view(fv, engine.point_full_view(row, col, scratch), where);
      EXPECT_EQ(nec, engine.point_necessary(row, col, decide)) << where;
      EXPECT_EQ(suf, engine.point_sufficient(row, col, decide)) << where;
      const PointEval pe = engine.eval_point(p, scratch);
      expect_same_full_view(fv, pe.full_view, where + " eval_point");
      EXPECT_EQ(nec, pe.necessary) << where << " eval_point";
      EXPECT_EQ(suf, pe.sufficient) << where << " eval_point";
    }
    EXPECT_EQ(all_nec, engine.row_all_necessary(row, decide)) << tag << " row=" << row;
    EXPECT_EQ(all_fv, engine.row_all_full_view(row, decide)) << tag << " row=" << row;
    EXPECT_EQ(all_suf, engine.row_all_sufficient(row, decide)) << tag << " row=" << row;
    for (const bool need_fv : {false, true}) {
      for (const bool need_suf : {false, true}) {
        const GridRowEvents ev = engine.row_events(row, decide, need_fv, need_suf);
        const bool fv_ok = all_nec && need_fv && all_fv;
        const bool suf_ok = all_nec && need_suf && all_suf && (!need_fv || all_fv);
        EXPECT_EQ(all_nec, ev.all_necessary) << tag << " row=" << row;
        EXPECT_EQ(fv_ok, ev.all_full_view) << tag << " row=" << row;
        EXPECT_EQ(suf_ok, ev.all_sufficient) << tag << " row=" << row;
      }
    }
  }
  // Off-lattice: a camera exactly on the query point (zero displacement).
  for (std::size_t c = 0; c < net.size(); c += 7) {
    const geom::Vec2 p = net.cameras()[c].position;
    const PointEval pe = engine.eval_point(p, scratch);
    const std::string where = tag + " camera=" + std::to_string(c);
    expect_same_full_view(full_view_covered(net, p, theta), pe.full_view, where);
    EXPECT_EQ(meets_necessary_condition(net, p, theta), pe.necessary) << where;
    EXPECT_EQ(meets_sufficient_condition(net, p, theta), pe.sufficient) << where;
  }
  return decisions.exact_directions;
}

// theta = 0.3*pi leaves a remainder, so both partitions carry the
// overlapping extra arc T_{k+1}; theta = 0.03*pi gives 34 and 67 arcs
// (hit sets over 64 bits); the last theta is pi/4 stretched by 5e-13
// relative, which the sector-count rounding rule still calls exact, so
// T_k ends ~3e-12 past 2*pi and overlaps T_1 across the seam.
TEST(GridEvalKernels, AdversarialGeometryMatchesOraclesOnEveryVariant) {
  const DenseGrid grid(kAdvSide);
  const double stretched = kPi / (4.0 * (1.0 - 5e-13));
  for (const double w : {2.0 * stretched, stretched}) {
    ASSERT_TRUE(geom::sector_division_exact(kTwoPi, w));
    const geom::Arc last = geom::sector_partition(w).back();
    ASSERT_GT(last.start + last.width - kTwoPi, 2.0 * detail::kDirectionEps);
  }
  const double thetas[] = {kPi / 4.0, 0.3 * kPi, 0.03 * kPi, stretched};
  for (const double theta : thetas) {
    const std::pair<std::string, std::vector<Camera>> families[] = {
        {"axis", axis_family(grid)},
        {"arc-boundary", arc_boundary_family(grid, theta)},
        {"victim-arc", victim_arc_family(grid, theta)},
        {"exact-gap", exact_gap_family(grid, theta)},
    };
    for (const auto& [family, cams] : families) {
      const Network net(cams, geom::SpaceMode::kTorus);
      for (const KernelVariant v : all_variants()) {
        if (!kernel_supported(v)) {
          continue;
        }
        const std::uint64_t exact = expect_engine_matches_oracles(v, net, grid, theta, family);
        EXPECT_GT(exact, 0U) << family << " kernel=" << kernel_name(v)
                             << " theta=" << theta
                             << ": the filter never fell back on boundary geometry";
      }
    }
  }
}

}  // namespace
}  // namespace fvc::core
