#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "fvc/api/client.hpp"
#include "fvc/api/server.hpp"
#include "fvc/api/session.hpp"
#include "fvc/api/wire.hpp"
#include "fvc/core/full_view.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/io/network_io.hpp"
#include "fvc/stats/distributions.hpp"
#include "fvc/stats/rng.hpp"
#include "requests.hpp"

namespace fvcbench {

using fvc::core::DenseGrid;
using fvc::core::GridEvalCounters;
using fvc::core::GridEvalEngine;
using fvc::core::GridEvalScratch;
using fvc::core::Network;

namespace {

double ms_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

/// `count` distinct seeded rows of a `side`-row grid, ascending.
std::vector<std::size_t> sample_rows(std::size_t side, std::size_t count, std::uint64_t seed) {
  std::vector<std::size_t> rows(side);
  for (std::size_t i = 0; i < side; ++i) {
    rows[i] = i;
  }
  fvc::stats::Pcg32 rng = fvc::stats::make_child_rng(seed, 0x5A3F);
  for (std::size_t i = 0; i + 1 < side; ++i) {  // Fisher-Yates
    const std::size_t j = i + rng() % (side - i);
    std::swap(rows[i], rows[j]);
  }
  rows.resize(std::min(count, side));
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The point answer through the scalar oracles (the `query_point` path).
fvc::core::PointEval oracle_point(const Network& net, const fvc::geom::Vec2& p, double theta) {
  fvc::core::PointEval out;
  out.full_view = fvc::core::full_view_covered(net, p, theta);
  out.necessary = fvc::core::meets_necessary_condition(net, p, theta);
  out.sufficient = fvc::core::meets_sufficient_condition(net, p, theta);
  return out;
}

bool same_point(const fvc::core::PointEval& a, const fvc::core::PointEval& b) {
  return a.full_view.covered == b.full_view.covered && a.full_view.max_gap == b.full_view.max_gap &&
         a.full_view.covering_count == b.full_view.covering_count &&
         a.necessary == b.necessary && a.sufficient == b.sufficient;
}

}  // namespace

void probe_deploy(const DeployFn& deploy, std::size_t n, std::uint64_t seed, std::size_t reps,
                  Report& report) {
  Samples ns_per_camera;
  for (std::size_t r = 0; r < reps; ++r) {
    const Span span("bench.deploy", kBenchCat);
    const std::uint64_t t0 = now_ns();
    const Network net = deploy(fvc::stats::mix64(seed, 0xDE9 + r));
    ns_per_camera.add(static_cast<double>(now_ns() - t0) / static_cast<double>(n));
    report.check(net.size() == n, "deploy: population size");
  }
  report.layer("deploy.ns_per_camera", "ns", ns_per_camera.median(), ns_per_camera.size());
}

void probe_io(const std::vector<fvc::core::Camera>& cameras, const std::string& path,
              std::size_t reps, Report& report) {
  {
    const Span span("bench.io.save_cameras", kBenchCat);
    fvc::io::save_cameras_file(path, cameras);
  }
  Samples load_ms;
  bool exact = true;
  for (std::size_t r = 0; r < reps; ++r) {
    const Span span("bench.io.load_cameras", kBenchCat);
    const std::uint64_t t0 = now_ns();
    const std::vector<fvc::core::Camera> loaded = fvc::io::load_cameras_file(path);
    load_ms.add(ms_since(t0));
    exact = exact && loaded.size() == cameras.size();
    for (std::size_t i = 0; exact && i < loaded.size(); ++i) {
      const fvc::core::Camera& a = loaded[i];
      const fvc::core::Camera& b = cameras[i];
      exact = a.position.x == b.position.x && a.position.y == b.position.y &&
              a.orientation == b.orientation && a.radius == b.radius && a.fov == b.fov &&
              a.group == b.group;
    }
  }
  report.check(exact, "io: camera file round trip is bit-exact");
  report.layer("io.load_cameras_ms", "ms", load_ms.median(), load_ms.size());
}

void probe_core(const Network& net, const DenseGrid& grid, double theta, std::uint64_t seed,
                std::size_t build_reps, double atan2_ns, Report& report) {
  const std::size_t side = grid.side();
  const auto points = static_cast<double>(grid.size());

  Samples build_ms;
  std::size_t index_bytes = 0;
  for (std::size_t r = 0; r < build_reps; ++r) {
    std::unique_ptr<GridEvalEngine> e;
    const std::uint64_t t0 = now_ns();
    {
      const Span span("bench.core.build", kBenchCat);
      e = std::make_unique<GridEvalEngine>(net, grid, theta);
    }
    build_ms.add(ms_since(t0));
    index_bytes = e->index_bytes();
  }
  report.layer("core.index_build_ms", "ms", build_ms.median(), build_ms.size());
  report.layer("core.index_bytes", "bytes", static_cast<double>(index_bytes), 1);

  const GridEvalEngine engine = [&] {
    const Span span("bench.core.build", kBenchCat);
    return GridEvalEngine(net, grid, theta);
  }();
  // Exact work counts over the whole grid, from the engine's own counters.
  GridEvalCounters counters;
  {
    const Span span("bench.core.counted_scan", kBenchCat);
    GridEvalScratch scratch;
    scratch.counters = &counters;
    (void)engine.evaluate(scratch);
  }
  double serial_ns = 0.0;
  {
    const Span span("bench.core.serial_scan", kBenchCat);
    GridEvalScratch scratch;
    const std::uint64_t t0 = now_ns();
    (void)engine.evaluate(scratch);
    serial_ns = static_cast<double>(now_ns() - t0);
  }
  const auto cand_total = static_cast<double>(counters.candidates_total);
  const auto dir_total = static_cast<double>(counters.directions_total);
  report.layer("core.candidates_per_point.mean", "count", cand_total / points, grid.size());
  report.layer("core.directions_per_point.mean", "count", dir_total / points, grid.size());
  report.layer("core.useful_ratio", "ratio", cand_total > 0 ? dir_total / cand_total : 0.0,
               grid.size());
  report.layer("core.trig_fallbacks", "count", static_cast<double>(counters.trig_fallbacks),
               grid.size());
  report.layer("core.serial_ns_per_point", "ns", serial_ns / points, grid.size());
  report.layer("core.atan2_share_computed", "ratio", dir_total * atan2_ns / serial_ns,
               grid.size());

  // Exact per-point distributions over every grid point.
  {
    const Span span("bench.core.distributions", kBenchCat);
    Samples cand;
    Samples dirs;
    GridEvalScratch scratch;
    for (std::size_t row = 0; row < side; ++row) {
      for (std::size_t col = 0; col < side; ++col) {
        cand.add(static_cast<double>(engine.point_candidate_count(row, col, scratch)));
        dirs.add(static_cast<double>(engine.sorted_directions(row, col, scratch).size()));
      }
    }
    report.layer("core.candidates_per_point.p99", "count", cand.quantile(0.99), cand.size());
    report.layer("core.directions_per_point.p99", "count", dirs.quantile(0.99), dirs.size());
    report.layer("core.directions_per_point.max", "count", dirs.max(), dirs.size());
  }

  // Stage costs on a seeded row sample: each pass starts from a fresh
  // scratch so every pass pays the same per-row set-up, and the stage cost
  // is the difference between nested passes.
  const std::vector<std::size_t> rows = sample_rows(side, 32, seed);
  const double sample_points = static_cast<double>(rows.size() * side);
  Samples gather;
  Samples directions;
  Samples predicates;
  std::size_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    {
      const Span span("bench.core.gather", kBenchCat);
      GridEvalScratch scratch;
      const std::uint64_t t0 = now_ns();
      for (const std::size_t row : rows) {
        for (std::size_t col = 0; col < side; ++col) {
          sink += engine.point_candidate_count(row, col, scratch);
        }
      }
      gather.add(static_cast<double>(now_ns() - t0) / sample_points);
    }
    {
      const Span span("bench.core.directions", kBenchCat);
      GridEvalScratch scratch;
      const std::uint64_t t0 = now_ns();
      for (const std::size_t row : rows) {
        for (std::size_t col = 0; col < side; ++col) {
          sink += engine.sorted_directions(row, col, scratch).size();
        }
      }
      directions.add(static_cast<double>(now_ns() - t0) / sample_points);
    }
    {
      const Span span("bench.core.row_stats", kBenchCat);
      GridEvalScratch scratch;
      const std::uint64_t t0 = now_ns();
      for (const std::size_t row : rows) {
        sink += engine.row_stats(row, scratch).full_view_ok;
      }
      predicates.add(static_cast<double>(now_ns() - t0) / sample_points);
    }
  }
  report.check(sink > 0 || counters.candidates_total == 0, "core: stage passes ran");
  report.layer("core.gather_ns_per_point", "ns", gather.median(), rows.size() * side);
  report.layer("core.directions_ns_per_point", "ns", directions.median() - gather.median(),
               rows.size() * side);
  report.layer("core.predicates_ns_per_point", "ns", predicates.median() - directions.median(),
               rows.size() * side);

  // The two point paths on one seeded pool, checked against each other.
  constexpr std::size_t kPool = 256;
  fvc::stats::Pcg32 rng = fvc::stats::make_child_rng(seed, 0x9017);
  std::vector<fvc::geom::Vec2> pool(kPool);
  for (fvc::geom::Vec2& p : pool) {
    p = {fvc::stats::uniform01(rng), fvc::stats::uniform01(rng)};
  }
  std::vector<fvc::core::PointEval> fused(kPool);
  Samples eval_ns;
  {
    const Span span("bench.core.eval_point", kBenchCat);
    GridEvalScratch scratch;
    for (int pass = 0; pass < 5; ++pass) {
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < kPool; ++i) {
        fused[i] = engine.eval_point(pool[i], scratch);
      }
      eval_ns.add(static_cast<double>(now_ns() - t0) / kPool);
    }
  }
  std::uint64_t mismatches = 0;
  double oracle_ns = 0.0;
  {
    const Span span("bench.core.oracle", kBenchCat);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kPool; ++i) {
      mismatches += same_point(oracle_point(net, pool[i], theta), fused[i]) ? 0 : 1;
    }
    oracle_ns = static_cast<double>(now_ns() - t0) / kPool;
  }
  report.ops(kPool, mismatches, "core: eval_point vs scalar oracle");
  report.layer("core.eval_point_ns", "ns", eval_ns.median(), kPool * eval_ns.size());
  report.layer("core.oracle_ns_per_point", "ns", oracle_ns, kPool);
}

double calibrate_classify_ns() {
  // Fixed, seed-independent engine: 2000 heterogeneous cameras, 128^2 grid.
  const double scale = std::sqrt(1000.0 / 2000.0);
  const fvc::core::HeterogeneousProfile profile(std::vector<fvc::core::CameraGroupSpec>{
      {0.5, 0.08 * scale, fvc::geom::kTwoPi}, {0.5, 0.12 * scale, 2.0}});
  fvc::stats::Pcg32 rng = fvc::stats::make_child_rng(1, 0xCA1);
  const Network net = fvc::deploy::deploy_uniform_network(profile, 2000, rng);
  const DenseGrid grid(128);
  const GridEvalEngine engine(net, grid, fvc::geom::kPi / 4.0);
  GridEvalScratch scratch;
  double candidates = 0.0;
  for (std::size_t row = 0; row < grid.side(); ++row) {
    for (std::size_t col = 0; col < grid.side(); ++col) {
      candidates += static_cast<double>(engine.point_candidate_count(row, col, scratch));
    }
  }
  Samples ns;
  std::size_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    GridEvalScratch fresh;
    const std::uint64_t t0 = now_ns();
    for (std::size_t row = 0; row < grid.side(); ++row) {
      for (std::size_t col = 0; col < grid.side(); ++col) {
        sink += engine.sorted_directions(row, col, fresh).size();
      }
    }
    ns.add(static_cast<double>(now_ns() - t0) / candidates);
  }
  return sink > 0 ? ns.median() : 0.0;
}

ReplayedTrial replay_trial(const DeployFn& deploy, std::uint64_t seed, const DenseGrid& grid,
                           double theta) {
  const Span trial_span("bench.sim.trial", kBenchCat);
  ReplayedTrial r;
  const std::uint64_t t0 = now_ns();
  const Network net = [&] {
    const Span span("bench.deploy", kBenchCat);
    return deploy(seed);
  }();
  std::unique_ptr<GridEvalEngine> engine;
  {
    const Span span("bench.core.build", kBenchCat);
    engine = std::make_unique<GridEvalEngine>(net, grid, theta);
  }
  fvc::sim::TrialEvents ev{true, true, true};
  {
    const Span span("bench.core.row_events", kBenchCat);
    GridEvalScratch scratch;
    for (std::size_t row = 0; row < engine->rows(); ++row) {
      const fvc::core::GridRowEvents re =
          engine->row_events(row, scratch, ev.all_full_view, ev.all_sufficient);
      ++r.rows;
      if (!re.all_necessary) {
        r.early_exit = true;
        ev = {false, false, false};
        break;
      }
      ev.all_full_view = ev.all_full_view && re.all_full_view;
      ev.all_sufficient = ev.all_sufficient && re.all_sufficient;
    }
  }
  engine.reset();
  r.events = ev;
  r.ms = ms_since(t0);
  return r;
}

void report_trials(const std::vector<ReplayedTrial>& trials, Report& report) {
  Samples ms;
  Samples rows;
  double early = 0.0;
  for (const ReplayedTrial& t : trials) {
    ms.add(t.ms);
    rows.add(static_cast<double>(t.rows));
    early += t.early_exit ? 1.0 : 0.0;
  }
  report.layer("sim.trial_ms.p50", "ms", ms.median(), ms.size());
  report.layer("sim.trial_ms.p90", "ms", ms.quantile(0.9), ms.size());
  report.layer("sim.rows_per_trial", "count", rows.mean(), rows.size());
  report.layer("sim.early_exit_ratio", "ratio",
               trials.empty() ? 0.0 : early / static_cast<double>(trials.size()), trials.size());
}

fvc::sim::TrialEvents oracle_events(const Network& net, const DenseGrid& grid, double theta) {
  const Span span("bench.core.oracle_region", kBenchCat);
  const fvc::core::RegionCoverageStats s = fvc::core::evaluate_region_scalar(net, grid, theta);
  if (!s.all_necessary()) {
    return {false, false, false};
  }
  return {true, s.all_full_view(), s.all_sufficient()};
}

void report_pool(const SelfTimes& traced_call, std::size_t threads, Report& report) {
  double busy = 0.0;
  double capacity = 0.0;
  double weighted_imbalance = 0.0;
  double wall = 0.0;
  for (const SelfTimes::PoolSection& s : traced_call.pool_sections) {
    Samples b;
    for (const double ms : s.busy_ms) {
      b.add(ms);
    }
    const double mean = b.sum() / static_cast<double>(threads);
    busy += b.sum();
    capacity += static_cast<double>(threads) * s.wall_ms;
    if (mean > 0.0) {
      weighted_imbalance += s.wall_ms * b.max() / mean;
      wall += s.wall_ms;
    }
  }
  const std::size_t n = traced_call.pool_sections.size();
  report.layer("sim.pool_utilization", "ratio", capacity > 0.0 ? busy / capacity : 0.0, n);
  report.layer("sim.block_imbalance", "ratio", wall > 0.0 ? weighted_imbalance / wall : 0.0, n);
}

void probe_api(const std::vector<fvc::core::Camera>& cameras, double theta,
               std::size_t grid_side, std::uint64_t seed, Report& report) {
  using fvc::api::Session;
  fvc::api::SessionConfig cfg;
  cfg.cameras = cameras;
  cfg.theta = theta;
  cfg.grid_side = grid_side;
  std::unique_ptr<Session> session;
  {
    const Span span("bench.api.session_build", kBenchCat);
    session = std::make_unique<Session>(std::move(cfg));
  }
  Session& s = *session;
  fvc::stats::Pcg32 rng = fvc::stats::make_child_rng(seed, 0xA91);
  constexpr std::size_t kPool = 64;
  std::vector<double> xs(kPool);
  std::vector<double> ys(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    xs[i] = fvc::stats::uniform01(rng);
    ys[i] = fvc::stats::uniform01(rng);
  }
  const fvc::core::Camera added = random_camera(cameras, rng);
  const std::size_t n = cameras.size();
  const auto time_us = [](auto&& fn) {
    const std::uint64_t t0 = now_ns();
    fn();
    return static_cast<double>(now_ns() - t0) / 1e3;
  };

  Samples computed;
  for (std::size_t k = 1; k <= 3; ++k) {
    {
      // A theta the cache has never seen forces every tile to be computed.
      const Span span("bench.api.set_theta", kBenchCat);
      (void)s.set_theta(theta * (1.0 - 1e-9 * static_cast<double>(k)));
    }
    const Span span("bench.api.region_computed", kBenchCat);
    fvc::api::RegionAnswer a;
    computed.add(time_us([&] { a = s.query_region(0.0, 1.0); }));
    report.check(a.tiles_computed == a.tiles_total, "api: uncached region computes every tile");
  }
  {
    const Span span("bench.api.set_theta", kBenchCat);
    (void)s.set_theta(theta);
  }
  {
    const Span span("bench.api.region_computed", kBenchCat);
    (void)s.query_region(0.0, 1.0);  // fills the cache for the warm queries
  }
  Samples cached;
  Samples point;
  Samples points;
  Samples what_if;
  {
    const Span span("bench.api.session_ops", kBenchCat);
    std::vector<fvc::api::PointAnswer> out(kPool);
    for (int rep = 0; rep < 20; ++rep) {
      fvc::api::RegionAnswer a;
      cached.add(time_us([&] { a = s.query_region(0.0, 1.0); }));
      report.check(a.tiles_cached == a.tiles_total, "api: warm region answers from the cache");
      for (std::size_t i = 0; i < kPool; i += 8) {
        point.add(time_us([&] { (void)s.query_point(xs[i], ys[i]); }));
      }
      points.add(time_us([&] { s.query_points(xs.data(), ys.data(), kPool, out.data()); }));
    }
    const std::uint64_t base = s.digest();
    for (int rep = 0; rep < 3; ++rep) {
      what_if.add(time_us([&] { (void)s.add_camera(added); }));
      what_if.add(time_us([&] { (void)s.remove_camera(n); }));
    }
    report.check(s.digest() == base, "api: add/remove pair restores the digest");
  }
  report.layer("api.session.point_us", "us", point.median(), point.size());
  report.layer("api.session.points_us", "us", points.median(), points.size());
  report.layer("api.session.region_cached_us", "us", cached.median(), cached.size());
  report.layer("api.session.region_computed_us", "us", computed.median(), computed.size());
  report.layer("api.session.what_if_us", "us", what_if.median(), what_if.size());

  // The same ops through handle_query: parse, dispatch, encode.
  Samples w_point;
  Samples w_points;
  Samples w_region;
  Samples w_what_if;
  std::uint64_t errors = 0;
  std::uint64_t sent = 0;
  const auto run = [&](Samples& into, const std::string& body) {
    std::string resp;
    into.add(time_us([&] { resp = fvc::api::handle_query(s, body); }));
    ++sent;
    errors += resp.find("\"ok\":true") == std::string::npos ? 1 : 0;
  };
  {
    const Span span("bench.api.wire_ops", kBenchCat);
    const std::string points_body = fvc::api::points_request(xs, ys);
    const std::string region_body = region_request(0.0, 1.0);
    for (int rep = 0; rep < 20; ++rep) {
      run(w_region, region_body);
      for (std::size_t i = 0; i < kPool; i += 8) {
        run(w_point, point_request(xs[i], ys[i]));
      }
      run(w_points, points_body);
    }
    for (int rep = 0; rep < 3; ++rep) {
      run(w_what_if, add_request(added));
      run(w_what_if, remove_request(n));
    }
  }
  report.ops(sent, errors, "api: handle_query answered ok:false");
  report.layer("api.wire.point_us", "us", w_point.median() - point.median(), w_point.size());
  report.layer("api.wire.points_us", "us", w_points.median() - points.median(), w_points.size());
  report.layer("api.wire.region_us", "us", w_region.median() - cached.median(), w_region.size());
  report.layer("api.wire.what_if_us", "us", w_what_if.median() - what_if.median(),
               w_what_if.size());
}

}  // namespace fvcbench
