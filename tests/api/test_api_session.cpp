/// Session facade tests: what-if edit -> row-scoped invalidation ->
/// re-query matches a fresh build bit-exactly and recomputes exactly the
/// rows the edit can reach; digest changes on every edit (and round-trips
/// with content); the incremental digest equals the from-scratch one
/// after every edit, rejected ones included.

#include "fvc/api/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "fvc/core/full_view.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/io/checkpoint.hpp"
#include "fvc/stats/distributions.hpp"
#include "fvc/stats/rng.hpp"

namespace fvc {
namespace {

constexpr double kTheta = geom::kHalfPi;
constexpr std::size_t kSide = 32;

std::vector<core::Camera> test_cameras(std::size_t n = 60, std::size_t seed = 7) {
  const auto profile = core::HeterogeneousProfile::homogeneous(0.2, 2.0);
  stats::Pcg32 rng(seed);
  const core::Network net = deploy::deploy_uniform_network(profile, n, rng);
  return {net.cameras().begin(), net.cameras().end()};
}

api::Session make_session(std::vector<core::Camera> cameras,
                          double theta = kTheta) {
  api::SessionConfig cfg;
  cfg.cameras = std::move(cameras);
  cfg.theta = theta;
  cfg.grid_side = kSide;
  cfg.threads = 3;
  return api::Session(std::move(cfg));
}

void expect_same_stats(const core::RegionCoverageStats& a,
                       const core::RegionCoverageStats& b) {
  EXPECT_EQ(a.total_points, b.total_points);
  EXPECT_EQ(a.covered_1, b.covered_1);
  EXPECT_EQ(a.necessary_ok, b.necessary_ok);
  EXPECT_EQ(a.full_view_ok, b.full_view_ok);
  EXPECT_EQ(a.sufficient_ok, b.sufficient_ok);
  EXPECT_EQ(a.k_covered_ok, b.k_covered_ok);
  // Bit-exact, not approximate: the whole point of the cache contract.
  EXPECT_EQ(a.min_max_gap, b.min_max_gap);
  EXPECT_EQ(a.max_max_gap, b.max_max_gap);
}

/// The served region answer must equal a *fresh* session's answer over the
/// same strip — the "cold rebuild" a one-shot CLI run would do.  Returns
/// the served answer.
api::RegionAnswer expect_matches_fresh(api::Session& session, double y_lo,
                                       double y_hi) {
  api::Session fresh = make_session(
      [&] {
        std::vector<core::Camera> cams;
        cams.reserve(session.camera_count());
        for (std::size_t i = 0; i < session.camera_count(); ++i) {
          cams.push_back(session.camera(i));
        }
        return cams;
      }(),
      session.theta());
  const api::RegionAnswer got = session.query_region(y_lo, y_hi);
  const api::RegionAnswer want = fresh.query_region(y_lo, y_hi);
  EXPECT_EQ(got.row_begin, want.row_begin);
  EXPECT_EQ(got.row_end, want.row_end);
  EXPECT_EQ(got.tiles_total, want.tiles_total);
  expect_same_stats(got.stats, want.stats);
  return got;
}

/// True when `cam`'s sensing disk reaches the cell centers of grid row
/// `row` in torus y-distance — the rows an edit of `cam` must recompute.
bool disk_reaches_row(const core::Camera& cam, std::size_t row) {
  const double y = (static_cast<double>(row) + 0.5) / kSide;
  const double d = std::fabs(cam.position.y - y);
  return std::min(d, 1.0 - d) <= cam.radius;
}

TEST(ApiSession, PointQueryRunsTheScalarOracles) {
  api::Session session = make_session(test_cameras());
  const core::Network net(test_cameras());
  // An interior point and the closed domain's corners and edges.
  for (const geom::Vec2 p : {geom::Vec2{0.375, 0.625}, geom::Vec2{0.0, 0.0},
                             geom::Vec2{1.0, 1.0}, geom::Vec2{0.0, 1.0},
                             geom::Vec2{1.0, 0.5}}) {
    const api::PointAnswer ans = session.query_point(p.x, p.y);
    const core::FullViewResult fv = core::full_view_covered(net, p, kTheta);
    EXPECT_EQ(ans.covered, fv.covered);
    EXPECT_EQ(ans.max_gap, fv.max_gap);
    EXPECT_EQ(ans.covering_count, fv.covering_count);
    EXPECT_EQ(ans.necessary, core::meets_necessary_condition(net, p, kTheta));
    EXPECT_EQ(ans.sufficient, core::meets_sufficient_condition(net, p, kTheta));
  }
}

TEST(ApiSession, WholeGridQueryMatchesOneShotEvaluation) {
  api::Session session = make_session(test_cameras());
  const core::Network net(test_cameras());
  const core::DenseGrid grid(kSide);
  const core::RegionCoverageStats want = core::evaluate_region(net, grid, kTheta);
  const api::RegionAnswer got = session.query_region(0.0, 1.0);
  EXPECT_EQ(got.row_begin, 0u);
  EXPECT_EQ(got.row_end, kSide);
  EXPECT_EQ(got.tiles_total, kSide);
  EXPECT_EQ(got.tiles_computed, kSide);
  expect_same_stats(got.stats, want);
  // Re-query: answered entirely from the row slots, still bit-identical.
  const api::RegionAnswer again = session.query_region(0.0, 1.0);
  EXPECT_EQ(again.tiles_cached, kSide);
  EXPECT_EQ(again.tiles_computed, 0u);
  expect_same_stats(again.stats, want);
}

// A "tile" is one grid row now (the `tiles_*` counts keep their wire
// names), so the whole tiles a strip resolves to are exactly its rows.
TEST(ApiSession, StripWidensToWholeTilesAndReportsRows) {
  api::Session session = make_session(test_cameras());
  // Rows with centers in [0.3, 0.55]: rows 10..17, nothing more.
  const api::RegionAnswer ans = session.query_region(0.3, 0.55);
  EXPECT_EQ(ans.row_begin, 10u);
  EXPECT_EQ(ans.row_end, 18u);
  EXPECT_EQ(ans.tiles_total, 8u);
  EXPECT_EQ(ans.tiles_computed, 8u);
  EXPECT_EQ(ans.stats.total_points, (18u - 10u) * kSide);
  // Only the band's rows were filled: a neighbouring row still computes.
  EXPECT_EQ(session.cached_rows(), 8u);
  EXPECT_EQ(session.query_region(0.3, 0.6).tiles_computed, 1u);
  expect_matches_fresh(session, 0.3, 0.55);
}

TEST(ApiSession, EmptyStripReturnsZeroRows) {
  api::Session session = make_session(test_cameras());
  // No cell center lies in [0, 1/(2*side)): centers start at 0.5/side.
  const api::RegionAnswer ans = session.query_region(0.0, 0.25 / kSide);
  EXPECT_EQ(ans.row_begin, 0u);
  EXPECT_EQ(ans.row_end, 0u);
  EXPECT_EQ(ans.tiles_total, 0u);
  EXPECT_EQ(ans.stats.total_points, 0u);
}

TEST(ApiSession, DigestChangesOnEveryEditAndRoundTrips) {
  api::Session session = make_session(test_cameras());
  const std::uint64_t base = session.digest();

  core::Camera extra;
  extra.position = {0.5, 0.5};
  extra.radius = 0.25;
  extra.fov = 2.0;
  const std::uint64_t after_add = session.add_camera(extra);
  EXPECT_NE(after_add, base);

  core::Camera moved = session.camera(0);
  moved.position.x = 0.987654321;
  const std::uint64_t after_move = session.move_camera(0, moved);
  EXPECT_NE(after_move, after_add);

  const std::uint64_t after_theta = session.set_theta(kTheta / 2.0);
  EXPECT_NE(after_theta, after_move);

  // Unwind every edit: the digest is content-derived, so the sequence
  // returns to the exact starting value.
  (void)session.set_theta(kTheta);
  (void)session.move_camera(0, test_cameras()[0]);
  const std::uint64_t back = session.remove_camera(session.camera_count() - 1);
  EXPECT_EQ(back, base);
  EXPECT_EQ(session.digest(), base);
}

void append_f(std::string& s, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  s += buf;
}

/// The from-scratch digest the session once recomputed on every edit,
/// kept verbatim (snprintf formatting, one pass over every camera) as the
/// oracle for the incremental one.
std::uint64_t reference_digest(const api::Session& session) {
  // Content-derived canonical form: an edit sequence returning to a prior
  // deployment returns to its prior digest.  Doubles as %.17g (full
  // round-trip, the repo-wide convention), one line per camera in index
  // order — index order matters because remove/move address by index.
  std::string canon = "fvc.session/1\ngrid-side=";
  canon += std::to_string(session.grid_side());
  canon += "\ntheta=";
  append_f(canon, session.theta());
  canon += '\n';
  for (std::size_t i = 0; i < session.camera_count(); ++i) {
    const core::Camera& cam = session.camera(i);
    canon += "cam=";
    append_f(canon, cam.position.x);
    canon += ' ';
    append_f(canon, cam.position.y);
    canon += ' ';
    append_f(canon, cam.orientation);
    canon += ' ';
    append_f(canon, cam.radius);
    canon += ' ';
    append_f(canon, cam.fov);
    canon += ' ';
    canon += std::to_string(cam.group);
    canon += '\n';
  }
  return io::config_digest64(canon);
}

/// The session's digest equals the oracle and a fresh session's.
void expect_digest_is_fresh(const api::Session& session, const char* step) {
  EXPECT_EQ(session.digest(), reference_digest(session)) << step;
  std::vector<core::Camera> cams;
  for (std::size_t i = 0; i < session.camera_count(); ++i) {
    cams.push_back(session.camera(i));
  }
  EXPECT_EQ(session.digest(), make_session(cams, session.theta()).digest()) << step;
}

TEST(ApiSession, IncrementalDigestMatchesFromScratchOracle) {
  api::Session session = make_session(test_cameras(40));
  expect_digest_is_fresh(session, "construction");
  stats::Pcg32 rng(2024);
  const auto random_camera = [&] {
    core::Camera cam;
    cam.position = {stats::uniform01(rng), stats::uniform01(rng)};
    cam.orientation = stats::uniform_in(rng, 0.0, geom::kTwoPi);
    cam.radius = stats::uniform_in(rng, 0.05, 0.3);
    cam.fov = stats::uniform_in(rng, 0.5, 3.0);
    cam.group = stats::uniform_below(rng, 3);
    return cam;
  };
  core::Camera invalid = random_camera();
  invalid.radius = -0.1;
  for (int step = 0; step < 120; ++step) {
    const std::size_t n = session.camera_count();
    const std::uint64_t before = session.digest();
    switch (stats::uniform_below(rng, 8)) {
      case 0:
        (void)session.add_camera(random_camera());
        break;
      case 1:
        (void)session.remove_camera(0);
        break;
      case 2:
        (void)session.remove_camera(n / 2);
        break;
      case 3:
        (void)session.remove_camera(n - 1);
        break;
      case 4:
        (void)session.move_camera(
            stats::uniform_below(rng, static_cast<std::uint32_t>(n)), random_camera());
        break;
      case 5: {
        const double theta = session.theta();
        (void)session.set_theta(stats::uniform_in(rng, 0.3, geom::kPi));
        expect_digest_is_fresh(session, "set_theta");
        EXPECT_EQ(session.set_theta(theta), before);
        break;
      }
      case 6: {
        EXPECT_THROW((void)session.add_camera(invalid), std::invalid_argument);
        EXPECT_EQ(session.camera_count(), n);
        EXPECT_EQ(session.digest(), before);
        break;
      }
      default: {
        const std::size_t i = stats::uniform_below(rng, static_cast<std::uint32_t>(n));
        const core::Camera kept = session.camera(i);
        EXPECT_THROW((void)session.move_camera(i, invalid), std::invalid_argument);
        EXPECT_EQ(session.camera(i).position.x, kept.position.x);
        EXPECT_EQ(session.digest(), before);
        break;
      }
    }
    expect_digest_is_fresh(session, std::to_string(step).c_str());
    if (session.camera_count() < 8) {
      (void)session.add_camera(random_camera());
    }
  }
  // A rejected edit also leaves the engine and cache serving the
  // previous deployment.
  EXPECT_THROW((void)session.add_camera(invalid), std::invalid_argument);
  expect_matches_fresh(session, 0.0, 1.0);
}

TEST(ApiSession, WhatIfEditsRequeryBitIdenticalToFreshBuild) {
  api::Session session = make_session(test_cameras());
  (void)session.query_region(0.0, 1.0);  // warm every tile

  core::Camera extra;
  extra.position = {0.25, 0.125};
  extra.orientation = 0.5;
  extra.radius = 0.1;
  extra.fov = 2.0;
  (void)session.add_camera(extra);
  expect_matches_fresh(session, 0.0, 1.0);

  core::Camera moved = session.camera(3);
  moved.position = {0.875, 0.875};
  (void)session.move_camera(3, moved);
  expect_matches_fresh(session, 0.0, 1.0);

  (void)session.remove_camera(session.camera_count() - 1);
  expect_matches_fresh(session, 0.0, 1.0);

  (void)session.set_theta(geom::kPi / 3.0);
  expect_matches_fresh(session, 0.0, 1.0);
  expect_matches_fresh(session, 0.4, 0.6);
}

// Tiles are single grid rows: an edit clears exactly the rows it reaches.
TEST(ApiSession, InvalidationIsScopedToTilesTheEditCanReach) {
  api::Session session = make_session(test_cameras());
  (void)session.query_region(0.0, 1.0);  // all 32 rows cached

  // A small camera near the top of the unit square: its disk (r = 0.05
  // around y = 0.125) reaches the rows with centers in [0.075, 0.175],
  // rows 2-5.
  core::Camera local;
  local.position = {0.5, 0.125};
  local.radius = 0.05;
  local.fov = 2.0;
  (void)session.add_camera(local);
  EXPECT_EQ(session.cache_stats().carried_forward, 28u);
  EXPECT_EQ(session.cached_rows(), 28u);

  const api::RegionAnswer ans = session.query_region(0.0, 1.0);
  EXPECT_EQ(ans.tiles_cached, 28u);   // kept rows hit
  EXPECT_EQ(ans.tiles_computed, 4u);  // only the dirty rows re-evaluated
  expect_matches_fresh(session, 0.0, 1.0);

  // Next to the torus seam: a disk around y = 0.01 reaches rows 0-1
  // (centers <= 0.06) and, across the seam, row 31 (center 0.984); row 30
  // (center 0.953) is 0.057 away.
  core::Camera seam = local;
  seam.position = {0.25, 0.01};
  (void)session.add_camera(seam);
  EXPECT_EQ(session.cached_rows(), 29u);
  EXPECT_EQ(session.query_region(0.9, 1.0).tiles_computed, 1u);  // row 31
  EXPECT_EQ(session.query_region(0.0, 0.1).tiles_computed, 2u);  // rows 0, 1
  expect_matches_fresh(session, 0.0, 1.0);

  // A theta edit clears every row, and so does reverting it.
  const std::uint64_t carried_before = session.cache_stats().carried_forward;
  (void)session.set_theta(geom::kPi / 2.5);
  EXPECT_EQ(session.cache_stats().carried_forward, carried_before);
  EXPECT_EQ(session.cached_rows(), 0u);
  EXPECT_EQ(session.query_region(0.0, 1.0).tiles_computed, kSide);
  (void)session.set_theta(kTheta);
  const api::RegionAnswer revert = session.query_region(0.0, 1.0);
  EXPECT_EQ(revert.tiles_cached, 0u);
  EXPECT_EQ(revert.tiles_computed, kSide);
  expect_matches_fresh(session, 0.0, 1.0);
}

/// The row cache against a fresh session over a seeded edit sequence:
/// adds, removes, moves and theta changes, rejected edits, and a camera
/// whose radius (>= 0.5) reaches every row.  After each edit a random
/// strip must match a fresh session bit for bit (a whole-grid strip must
/// also match core::evaluate_region) and must recompute exactly the rows
/// of the band that no query has filled since an edit could reach them.
TEST(ApiSession, RowCacheMatchesFreshSessionOverSeededEdits) {
  api::Session session = make_session(test_cameras(40));
  stats::Pcg32 rng(515);
  const auto random_camera = [&] {
    core::Camera cam;
    cam.position = {stats::uniform01(rng), stats::uniform01(rng)};
    cam.orientation = stats::uniform_in(rng, 0.0, geom::kTwoPi);
    cam.radius = stats::uniform_in(rng, 0.02, 0.3);
    cam.fov = stats::uniform_in(rng, 0.5, 3.0);
    cam.group = stats::uniform_below(rng, 3);
    return cam;
  };
  core::Camera invalid = random_camera();
  invalid.radius = -0.1;
  // The test's model of the slots: valid[r] while row r holds a value.
  std::vector<bool> valid(kSide, false);
  const auto touch = [&](const core::Camera& cam) {
    for (std::size_t row = 0; row < kSide; ++row) {
      if (disk_reaches_row(cam, row)) {
        valid[row] = false;
      }
    }
  };
  std::size_t whole_grid_checks = 0;
  for (int step = 0; step < 100; ++step) {
    const std::size_t n = session.camera_count();
    const std::uint64_t before = session.digest();
    switch (stats::uniform_below(rng, 7)) {
      case 0: {
        const core::Camera cam = random_camera();
        (void)session.add_camera(cam);
        touch(cam);
        break;
      }
      case 1: {
        const std::size_t i = stats::uniform_below(rng, static_cast<std::uint32_t>(n));
        const core::Camera gone = session.camera(i);
        (void)session.remove_camera(i);
        touch(gone);
        break;
      }
      case 2: {
        const std::size_t i = stats::uniform_below(rng, static_cast<std::uint32_t>(n));
        const core::Camera gone = session.camera(i);
        const core::Camera cam = random_camera();
        (void)session.move_camera(i, cam);
        touch(gone);
        touch(cam);
        break;
      }
      case 3: {
        const double theta = stats::uniform_below(rng, 2) == 0
                                 ? session.theta()  // same bits: nothing clears
                                 : stats::uniform_in(rng, 0.3, geom::kPi);
        if (theta != session.theta()) {
          std::fill(valid.begin(), valid.end(), false);
        }
        (void)session.set_theta(theta);
        break;
      }
      case 4: {
        // A wide camera reaches every row (torus y-distance <= 0.5).
        core::Camera wide = random_camera();
        wide.radius = stats::uniform_in(rng, 0.5, 0.7);
        (void)session.add_camera(wide);
        touch(wide);
        EXPECT_TRUE(std::none_of(valid.begin(), valid.end(), [](bool v) { return v; }));
        break;
      }
      default: {
        // Rejected edits change nothing: no slot is cleared.
        const std::size_t i = stats::uniform_below(rng, static_cast<std::uint32_t>(n));
        EXPECT_THROW((void)session.add_camera(invalid), std::invalid_argument);
        EXPECT_THROW((void)session.move_camera(i, invalid), std::invalid_argument);
        EXPECT_THROW((void)session.set_theta(-1.0), std::invalid_argument);
        EXPECT_EQ(session.digest(), before);
        break;
      }
    }
    if (session.camera_count() < 8) {
      const core::Camera cam = random_camera();
      (void)session.add_camera(cam);
      touch(cam);
    }
    const std::size_t cached =
        static_cast<std::size_t>(std::count(valid.begin(), valid.end(), true));
    EXPECT_EQ(session.cached_rows(), cached) << "step " << step;

    double y_lo = 0.0;
    double y_hi = 1.0;
    if (stats::uniform_below(rng, 5) != 0) {
      y_lo = stats::uniform01(rng);
      y_hi = stats::uniform01(rng);
      if (y_hi < y_lo) {
        std::swap(y_lo, y_hi);
      }
    }
    std::size_t want_computed = 0;
    std::size_t want_total = 0;
    for (std::size_t row = 0; row < kSide; ++row) {
      const double y = (static_cast<double>(row) + 0.5) / kSide;
      if (y_lo <= y && y <= y_hi) {
        ++want_total;
        want_computed += valid[row] ? 0 : 1;
        valid[row] = true;
      }
    }
    const api::RegionAnswer got = expect_matches_fresh(session, y_lo, y_hi);
    EXPECT_EQ(got.tiles_total, want_total) << "step " << step;
    EXPECT_EQ(got.tiles_computed, want_computed) << "step " << step;
    EXPECT_EQ(got.tiles_cached, want_total - want_computed) << "step " << step;
    if (y_lo == 0.0 && y_hi == 1.0) {
      ++whole_grid_checks;
      std::vector<core::Camera> cams;
      for (std::size_t i = 0; i < session.camera_count(); ++i) {
        cams.push_back(session.camera(i));
      }
      const core::RegionCoverageStats want = core::evaluate_region(
          core::Network(cams), core::DenseGrid(kSide), session.theta());
      expect_same_stats(got.stats, want);
    }
  }
  EXPECT_GT(whole_grid_checks, 0u);
}

TEST(ApiSession, ConstructionAndQueryValidation) {
  EXPECT_THROW(make_session(test_cameras(), 0.0), std::invalid_argument);
  EXPECT_THROW(make_session(test_cameras(), geom::kPi + 0.1),
               std::invalid_argument);
  {
    api::SessionConfig cfg;
    cfg.cameras = test_cameras();
    cfg.grid_side = 0;
    EXPECT_THROW(api::Session{std::move(cfg)}, std::invalid_argument);
  }
  api::Session session = make_session(test_cameras());
  EXPECT_THROW((void)session.query_region(0.6, 0.4), std::invalid_argument);
  EXPECT_THROW((void)session.remove_camera(session.camera_count()),
               std::out_of_range);
  EXPECT_THROW((void)session.move_camera(session.camera_count(),
                                         session.camera(0)),
               std::out_of_range);
  // A rejected edit leaves the session serving its previous deployment.
  const std::uint64_t base = session.digest();
  EXPECT_THROW((void)session.set_theta(-1.0), std::invalid_argument);
  EXPECT_EQ(session.digest(), base);
  EXPECT_EQ(session.theta(), kTheta);
  // Point queries live on the closed [0, 1]^2: anything else (NaN
  // included) is a typed error, and one bad point rejects a whole batch
  // before any answer is written.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double bad[][2] = {{1e300, 0.5},  {0.5, -1e300},
                           {-1e-300, 0.5}, {0.5, std::nextafter(1.0, 2.0)},
                           {nan, 0.5},    {0.5, nan}};
  for (const auto& xy : bad) {
    EXPECT_THROW((void)session.query_point(xy[0], xy[1]), api::PointDomainError)
        << xy[0] << "," << xy[1];
  }
  const double xs[] = {0.5, 1e300};
  const double ys[] = {0.5, 0.5};
  api::PointAnswer out[2];
  out[0].covering_count = 777;
  EXPECT_THROW(session.query_points(xs, ys, 2, out), api::PointDomainError);
  EXPECT_EQ(out[0].covering_count, 777u);
}

}  // namespace
}  // namespace fvc
