/// bench_serve — open-loop load generator for the `fvc serve` daemon.
///
/// Drives a running daemon over its unix socket with a mixed request
/// stream (points, regions, what-if edits) and checks every answer
/// bit-exactly against a local mirror `api::Session` built from the same
/// deployment parameters.  The check is meaningful because the wire
/// format carries doubles as %.17g (full round-trip): a served number
/// that differs from the locally computed one by even one ULP is a
/// mismatch, and a mismatch is a nonzero exit, not a footnote.
///
/// Four phases:
///   1. preflight — `info` must agree with the mirror on digest, camera
///      count, theta and grid shape (catches a daemon started with
///      different flags before any load is applied);
///   2. verify    — a deterministic single-connection transcript: point,
///      `points` (the whole pool in one coalesced request) and region
///      queries, then a what-if add/remove pair that must return the
///      digest to its original value, each answer compared
///      field-by-field against the mirror run in lockstep;
///   3. load      — `connections` client threads issue `seconds * qps`
///      requests on an open-loop schedule (request i fires at
///      t0 + i/qps; a busy daemon makes latency grow, not the offered
///      rate shrink).  The mix is 60% point / 30% region / 10% what-if,
///      where the load-phase what-if is a no-op move (index only: absent
///      fields keep the camera) so concurrent clients never perturb each
///      other's expected answers — every response is still verified
///      bit-exactly against precomputed mirror answers;
///   4. batched point load — `connections` clients hammer `point`
///      requests closed-loop (back-to-back, no pacing) for up to 5 s.
///      This is the workload the daemon's group-commit batcher exists
///      for: concurrent requests coalesce into single SIMD kernel
///      rounds, and the stats bracket around the phase records how many
///      (`batched_requests`).  Every answer is still verified
///      bit-exactly.
///
/// Around phase 3 the bench polls the daemon's `stats` verb (fvc.serve_stats/2)
/// once before and once after the load, which buys two things: daemon-side
/// latency percentiles (measured inside the handler, so client scheduling
/// noise is excluded) recorded next to the client-side ones, and an exact
/// accounting check — the daemon's per-type request deltas across the load
/// window must equal the counts this bench issued, request for request.
///
/// The daemon must be serving the same deployment this tool derives from
/// its [n seed grid_side] arguments (phase 1 enforces it), and no other
/// client may use it while the bench runs (the accounting check is exact,
/// so even one foreign request fails the bench).
///
/// Usage:
///   bench_serve <socket> [out.json] [seconds] [qps] [connections]
///               [n] [seed] [grid_side]
///     socket     unix socket path of a running `fvc_sim serve`
///     out.json   output path                default BENCH_serve.json
///     seconds    load-phase duration        default 5
///     qps        offered request rate       default 200
///     connections client threads            default 4
///     n          population size            default 300   (serve default)
///     seed       deployment RNG seed        default 1     (serve default)
///     grid_side  evaluation grid side       default 64    (serve default)
///   radius/fov/theta are pinned to the serve defaults
///   (0.15 / 2.0 / pi/2); start the daemon accordingly.
///
/// Writes a fvc.bench_serve/5 JSON record: the shared `host` block
/// (bench_host.hpp), offered vs achieved QPS,
/// client-side latency percentiles (measured from the *scheduled* send
/// time, so queueing delay is charged to the daemon), per-op counts,
/// daemon-side percentiles and cache hit rate from the `stats` verb, the
/// accounting check, the batched-load section (closed-loop point
/// throughput and batch telemetry deltas), and the mismatch counters the
/// CI smoke leg gates on.
///
/// Exit status: 0 on success; 1 on bad usage, preflight disagreement,
/// any bit-identity mismatch, any error response, a lost connection, or a
/// stats accounting disagreement.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fvc/api/client.hpp"
#include "fvc/api/session.hpp"
#include "fvc/api/wire.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/stats/rng.hpp"

#include "bench_host.hpp"

namespace {

using namespace fvc;
using Clock = std::chrono::steady_clock;

/// Fractional part — low-discrepancy coordinate streams for the pools.
double fract(double v) { return v - std::floor(v); }

/// The point-query pool: load-phase request i queries pool[i % size], so
/// mirror answers are precomputed once and shared read-only by workers.
constexpr std::size_t kPointPool = 64;

/// The region-strip pool (y_lo, y_hi pairs), whole grid included.
constexpr double kStrips[][2] = {
    {0.0, 1.0},  {0.0, 0.25},   {0.25, 0.5}, {0.5, 0.75},
    {0.75, 1.0}, {0.4, 0.6},    {0.1, 0.15}, {0.9, 0.95},
};
constexpr std::size_t kStripPool = sizeof(kStrips) / sizeof(kStrips[0]);

struct PointCase {
  double x = 0.0;
  double y = 0.0;
  std::string request;
  api::PointAnswer expect;
};

struct RegionCase {
  double y_lo = 0.0;
  double y_hi = 0.0;
  std::string request;
  api::RegionAnswer expect;
};

std::string point_request(double x, double y) {
  api::JsonObjectWriter w;
  w.add_string("op", "point");
  w.add_number("x", x);
  w.add_number("y", y);
  return w.finish();
}

std::string region_request(double y_lo, double y_hi) {
  api::JsonObjectWriter w;
  w.add_string("op", "region");
  w.add_number("y_lo", y_lo);
  w.add_number("y_hi", y_hi);
  return w.finish();
}

/// No-op move: index only, every camera field absent (= kept).  Exercises
/// the full what-if path — rebuild, digest recompute, cache carry — while
/// leaving the deployment (and therefore every pooled answer) unchanged.
std::string noop_move_request(std::size_t index) {
  api::JsonObjectWriter w;
  w.add_string("op", "what_if");
  w.add_string("action", "move");
  w.add_integer("index", index);
  return w.finish();
}

/// Field-by-field bit-exact comparison of a served point answer.  Doubles
/// compare with == (the %.17g wire round-trip preserves the bits).
bool point_matches(const api::WireObject& obj, const api::PointAnswer& want,
                   const std::string& digest_hex) {
  return api::get_bool(obj, "ok") &&
         api::get_string(obj, "digest") == digest_hex &&
         api::get_bool(obj, "covered") == want.covered &&
         api::get_bool(obj, "necessary") == want.necessary &&
         api::get_bool(obj, "sufficient") == want.sufficient &&
         api::get_number(obj, "max_gap") == want.max_gap &&
         api::get_number(obj, "covering_count") ==
             static_cast<double>(want.covering_count);
}

/// Bit-exact comparison of a served region answer.  Cache-effectiveness
/// fields (tiles_cached/tiles_computed) are deliberately NOT compared:
/// the contract makes cache hits unobservable in the *answer*, and the
/// daemon's cache history legitimately differs from the mirror's.
bool region_matches(const api::WireObject& obj, const api::RegionAnswer& want,
                    const std::string& digest_hex) {
  return api::get_bool(obj, "ok") &&
         api::get_string(obj, "digest") == digest_hex &&
         api::get_number(obj, "row_begin") ==
             static_cast<double>(want.row_begin) &&
         api::get_number(obj, "row_end") == static_cast<double>(want.row_end) &&
         api::get_number(obj, "total_points") ==
             static_cast<double>(want.stats.total_points) &&
         api::get_number(obj, "covered_1") ==
             static_cast<double>(want.stats.covered_1) &&
         api::get_number(obj, "necessary_ok") ==
             static_cast<double>(want.stats.necessary_ok) &&
         api::get_number(obj, "full_view_ok") ==
             static_cast<double>(want.stats.full_view_ok) &&
         api::get_number(obj, "sufficient_ok") ==
             static_cast<double>(want.stats.sufficient_ok) &&
         api::get_number(obj, "k_covered_ok") ==
             static_cast<double>(want.stats.k_covered_ok) &&
         api::get_number(obj, "min_max_gap") == want.stats.min_max_gap &&
         api::get_number(obj, "max_max_gap") == want.stats.max_max_gap;
}

struct LoadTotals {
  std::atomic<std::uint64_t> points{0};
  std::atomic<std::uint64_t> regions{0};
  std::atomic<std::uint64_t> what_ifs{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> errors{0};  ///< ok:false or lost connection
};

double percentile_us(const std::vector<std::uint64_t>& sorted_ns, double p) {
  if (sorted_ns.empty()) {
    return 0.0;
  }
  const double rank = p * static_cast<double>(sorted_ns.size() - 1);
  const auto idx = static_cast<std::size_t>(rank);
  return static_cast<double>(sorted_ns[idx]) / 1000.0;
}

/// One fvc.serve_stats/2 snapshot, reduced to what the bench records.
struct DaemonStats {
  double requests_total = 0.0;
  double errors_total = 0.0;
  double point_count = 0.0;
  double region_count = 0.0;
  double what_if_count = 0.0;
  double point_p[3] = {0.0, 0.0, 0.0};    ///< p50/p90/p99 us
  double region_p[3] = {0.0, 0.0, 0.0};
  double what_if_p[3] = {0.0, 0.0, 0.0};
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double batched_requests = 0.0;  ///< requests answered in >=2-waiter rounds
  double batch_rounds = 0.0;      ///< group-commit kernel rounds run
};

/// Poll the daemon's stats verb.  \throws on an unreachable daemon or a
/// daemon too old to answer it — the bench and daemon ship together.
DaemonStats poll_stats(api::Client& c) {
  const api::WireObject obj = api::parse_flat_object(c.request("{\"op\":\"stats\"}"));
  if (!api::get_bool(obj, "ok") ||
      api::get_string(obj, "schema") != api::kServeStatsSchema) {
    throw std::runtime_error("daemon does not answer the stats verb");
  }
  DaemonStats s;
  s.requests_total = api::get_number(obj, "requests_total");
  s.errors_total = api::get_number(obj, "errors_total");
  s.point_count = api::get_number(obj, "point_count");
  s.region_count = api::get_number(obj, "region_count");
  s.what_if_count = api::get_number(obj, "what_if_count");
  static constexpr const char* kQ[] = {"_p50_us", "_p90_us", "_p99_us"};
  for (std::size_t q = 0; q < 3; ++q) {
    s.point_p[q] = api::get_number(obj, std::string("point") + kQ[q]);
    s.region_p[q] = api::get_number(obj, std::string("region") + kQ[q]);
    s.what_if_p[q] = api::get_number(obj, std::string("what_if") + kQ[q]);
  }
  s.cache_hits = api::get_number(obj, "cache_hits");
  s.cache_misses = api::get_number(obj, "cache_misses");
  s.batched_requests = api::get_number(obj, "batched_requests");
  s.batch_rounds = api::get_number(obj, "batch_rounds");
  return s;
}

/// Bit-exact check of a `points` response slot against a pooled case.
bool points_slot_matches(const api::WireObject& obj, std::size_t slot,
                         const api::PointAnswer& want) {
  const std::vector<double>& covered = api::get_numbers(obj, "covered");
  const std::vector<double>& necessary = api::get_numbers(obj, "necessary");
  const std::vector<double>& sufficient = api::get_numbers(obj, "sufficient");
  const std::vector<double>& max_gap = api::get_numbers(obj, "max_gap");
  const std::vector<double>& count = api::get_numbers(obj, "covering_count");
  return slot < covered.size() &&
         covered[slot] == (want.covered ? 1.0 : 0.0) &&
         necessary[slot] == (want.necessary ? 1.0 : 0.0) &&
         sufficient[slot] == (want.sufficient ? 1.0 : 0.0) &&
         max_gap[slot] == want.max_gap &&
         count[slot] == static_cast<double>(want.covering_count);
}

/// Result of one closed-loop point-only load (phase 4).
struct ClosedLoopResult {
  std::size_t answered = 0;
  double elapsed_s = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t mismatches = 0;
  std::uint64_t errors = 0;
};

/// Hammer `point` requests back-to-back from `connections` clients for
/// `seconds`, verifying every answer bit-exactly against the pool.
/// Closed-loop: each worker's next request leaves the moment its
/// previous answer arrives — the shape that lets concurrent requests
/// pile into the daemon's batch queue.
ClosedLoopResult closed_loop_point_load(const std::string& socket_path,
                                        const std::vector<PointCase>& points,
                                        const std::string& digest_hex,
                                        std::size_t connections,
                                        double seconds) {
  ClosedLoopResult res;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::vector<std::uint64_t>> lat_ns(connections);
  std::mutex print_mutex;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  std::atomic<Clock::duration::rep> last_done{0};
  auto worker = [&](std::size_t w) {
    try {
      api::Client c(socket_path);
      std::vector<std::uint64_t>& lats = lat_ns[w];
      std::size_t i = w;  // stagger pool starts across workers
      while (Clock::now() < deadline) {
        const PointCase& pc = points[i++ % kPointPool];
        const Clock::time_point sent = Clock::now();
        const std::optional<std::string> raw = c.try_request(pc.request);
        const Clock::time_point done = Clock::now();
        if (!raw.has_value()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        lats.push_back(static_cast<std::uint64_t>(
            std::chrono::nanoseconds(done - sent).count()));
        last_done.store((done - t0).count(), std::memory_order_relaxed);
        if (!point_matches(api::parse_flat_object(*raw), pc.expect,
                           digest_hex)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lock(print_mutex);
          std::fprintf(stderr, "bench_serve: batched load FAIL: %s\n",
                       raw->c_str());
        }
      }
    } catch (const std::exception& e) {
      errors.fetch_add(1, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(print_mutex);
      std::fprintf(stderr, "bench_serve: closed-loop worker %zu died: %s\n", w,
                   e.what());
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (std::size_t w = 0; w < connections; ++w) {
    workers.emplace_back(worker, w);
  }
  for (std::thread& t : workers) {
    t.join();
  }
  std::vector<std::uint64_t> all;
  for (const std::vector<std::uint64_t>& v : lat_ns) {
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  res.answered = all.size();
  res.elapsed_s = std::chrono::duration<double>(
                      Clock::duration(last_done.load(std::memory_order_relaxed)))
                      .count();
  res.qps = res.elapsed_s > 0.0
                ? static_cast<double>(all.size()) / res.elapsed_s
                : 0.0;
  res.p50_us = percentile_us(all, 0.50);
  res.p90_us = percentile_us(all, 0.90);
  res.p99_us = percentile_us(all, 0.99);
  res.mismatches = mismatches.load();
  res.errors = errors.load();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: bench_serve <socket> [out.json] [seconds] [qps] "
                 "[connections] [n] [seed] [grid_side]\n");
    return 1;
  }
  const std::string socket_path = argv[1];
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_serve.json";
  const double seconds = argc > 3 ? std::atof(argv[3]) : 5.0;
  const double qps = argc > 4 ? std::atof(argv[4]) : 200.0;
  const std::size_t connections =
      std::max<std::size_t>(1, argc > 5 ? static_cast<std::size_t>(std::atoll(argv[5])) : 4);
  const std::size_t n = argc > 6 ? static_cast<std::size_t>(std::atoll(argv[6])) : 300;
  const std::size_t seed = argc > 7 ? static_cast<std::size_t>(std::atoll(argv[7])) : 1;
  const std::size_t grid_side =
      argc > 8 ? static_cast<std::size_t>(std::atoll(argv[8])) : 64;
  if (seconds <= 0.0 || qps <= 0.0 || n == 0 || grid_side == 0) {
    std::fprintf(stderr, "bench_serve: seconds/qps/n/grid_side must be positive\n");
    return 1;
  }

  // The local mirror: same deployment recipe as `fvc_sim serve` with the
  // matching flags (deploy_or_load's uniform path, serve's defaults).
  const auto profile = core::HeterogeneousProfile::homogeneous(0.15, 2.0);
  stats::Pcg32 rng(seed);
  const core::Network net = deploy::deploy_uniform_network(profile, n, rng);
  api::SessionConfig scfg;
  scfg.cameras.assign(net.cameras().begin(), net.cameras().end());
  scfg.theta = geom::kHalfPi;
  scfg.grid_side = grid_side;
  api::Session mirror(std::move(scfg));
  const std::string digest_hex = mirror.digest_hex();
  std::printf("mirror: %zu cameras, grid %zux%zu, digest %s\n",
              mirror.camera_count(), grid_side, grid_side, digest_hex.c_str());

  std::uint64_t verify_requests = 0;
  std::uint64_t verify_mismatches = 0;

  // --- Phase 1: preflight — the daemon must serve *this* deployment. ---
  try {
    api::Client probe(socket_path);
    const api::WireObject info = api::parse_flat_object(probe.request("{\"op\":\"info\"}"));
    ++verify_requests;
    if (!api::get_bool(info, "ok") ||
        api::get_string(info, "schema") != api::kQuerySchema ||
        api::get_string(info, "digest") != digest_hex ||
        api::get_number(info, "cameras") != static_cast<double>(mirror.camera_count()) ||
        api::get_number(info, "theta") != mirror.theta() ||
        api::get_number(info, "grid_side") != static_cast<double>(grid_side)) {
      std::fprintf(stderr,
                   "bench_serve: preflight FAIL — daemon at %s does not serve "
                   "the mirrored deployment (want digest %s)\n",
                   socket_path.c_str(), digest_hex.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: cannot reach daemon at %s: %s\n",
                 socket_path.c_str(), e.what());
    return 1;
  }

  // Precompute the pooled cases on the mirror (also warms its cache).
  std::vector<PointCase> points(kPointPool);
  for (std::size_t i = 0; i < kPointPool; ++i) {
    PointCase& pc = points[i];
    pc.x = fract(0.5 + static_cast<double>(i) * 0.61803398874989485);
    pc.y = fract(0.25 + static_cast<double>(i) * 0.75487766624669276);
    pc.request = point_request(pc.x, pc.y);
    pc.expect = mirror.query_point(pc.x, pc.y);
  }
  std::vector<RegionCase> regions(kStripPool);
  for (std::size_t i = 0; i < kStripPool; ++i) {
    RegionCase& rc = regions[i];
    rc.y_lo = kStrips[i][0];
    rc.y_hi = kStrips[i][1];
    rc.request = region_request(rc.y_lo, rc.y_hi);
    rc.expect = mirror.query_region(rc.y_lo, rc.y_hi);
  }

  // --- Phase 2: deterministic verify transcript, mirror in lockstep. ---
  try {
    api::Client c(socket_path);
    for (const PointCase& pc : points) {
      ++verify_requests;
      if (!point_matches(api::parse_flat_object(c.request(pc.request)),
                         pc.expect, digest_hex)) {
        std::fprintf(stderr, "bench_serve: verify FAIL point (%.17g, %.17g)\n",
                     pc.x, pc.y);
        ++verify_mismatches;
      }
    }
    // The whole pool again, coalesced into one `points` request: slot k
    // must carry the same bits the per-point answers just did.
    {
      std::vector<double> xs(kPointPool);
      std::vector<double> ys(kPointPool);
      for (std::size_t i = 0; i < kPointPool; ++i) {
        xs[i] = points[i].x;
        ys[i] = points[i].y;
      }
      ++verify_requests;
      const api::WireObject resp =
          api::parse_flat_object(c.request(api::points_request(xs, ys)));
      if (!api::get_bool(resp, "ok") ||
          api::get_string(resp, "digest") != digest_hex ||
          api::get_number(resp, "count") != static_cast<double>(kPointPool)) {
        std::fprintf(stderr, "bench_serve: verify FAIL points envelope\n");
        ++verify_mismatches;
      } else {
        for (std::size_t i = 0; i < kPointPool; ++i) {
          if (!points_slot_matches(resp, i, points[i].expect)) {
            std::fprintf(stderr, "bench_serve: verify FAIL points slot %zu\n", i);
            ++verify_mismatches;
          }
        }
      }
    }
    for (const RegionCase& rc : regions) {
      ++verify_requests;
      if (!region_matches(api::parse_flat_object(c.request(rc.request)),
                          rc.expect, digest_hex)) {
        std::fprintf(stderr, "bench_serve: verify FAIL region [%.17g, %.17g]\n",
                     rc.y_lo, rc.y_hi);
        ++verify_mismatches;
      }
    }
    // What-if round trip: add a camera, query under the edit, remove it.
    // Digests must track the mirror at every step and return to base.
    core::Camera extra;
    extra.position = {0.40625, 0.59375};
    extra.orientation = 1.0;
    extra.radius = 0.2;
    extra.fov = 2.0;
    const std::uint64_t edited = mirror.add_camera(extra);
    const api::RegionAnswer edited_region = mirror.query_region(0.4, 0.6);
    const std::string edited_hex = mirror.digest_hex();
    const std::uint64_t back = mirror.remove_camera(mirror.camera_count() - 1);
    if (back == edited || mirror.digest_hex() != digest_hex) {
      std::fprintf(stderr, "bench_serve: mirror digest did not round-trip\n");
      return 1;
    }

    api::JsonObjectWriter add;
    add.add_string("op", "what_if");
    add.add_string("action", "add");
    add.add_number("x", extra.position.x);
    add.add_number("y", extra.position.y);
    add.add_number("orientation", extra.orientation);
    add.add_number("radius", extra.radius);
    add.add_number("fov", extra.fov);
    ++verify_requests;
    api::WireObject resp = api::parse_flat_object(c.request(add.finish()));
    if (!api::get_bool(resp, "ok") ||
        api::get_string(resp, "digest") != edited_hex) {
      std::fprintf(stderr, "bench_serve: verify FAIL what_if add digest\n");
      ++verify_mismatches;
    }
    ++verify_requests;
    if (!region_matches(
            api::parse_flat_object(c.request(region_request(0.4, 0.6))),
            edited_region, edited_hex)) {
      std::fprintf(stderr, "bench_serve: verify FAIL region under edit\n");
      ++verify_mismatches;
    }
    api::JsonObjectWriter rm;
    rm.add_string("op", "what_if");
    rm.add_string("action", "remove");
    rm.add_integer("index", mirror.camera_count());  // the camera just added
    ++verify_requests;
    resp = api::parse_flat_object(c.request(rm.finish()));
    if (!api::get_bool(resp, "ok") ||
        api::get_string(resp, "digest") != digest_hex) {
      std::fprintf(stderr, "bench_serve: verify FAIL what_if remove digest\n");
      ++verify_mismatches;
    }
    // Post-edit: the base answers must be served again, bit-identical.
    ++verify_requests;
    if (!region_matches(api::parse_flat_object(c.request(regions[0].request)),
                        regions[0].expect, digest_hex)) {
      std::fprintf(stderr, "bench_serve: verify FAIL region after round-trip\n");
      ++verify_mismatches;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: verify phase died: %s\n", e.what());
    return 1;
  }
  std::printf("verify: %llu requests, %llu mismatches\n",
              static_cast<unsigned long long>(verify_requests),
              static_cast<unsigned long long>(verify_mismatches));

  // --- Stats bracket, opening poll: the daemon's totals entering the
  // load window.  A recorded response never races its own accounting
  // (the daemon records before the response leaves), so after a
  // request's answer arrives the totals already include it.
  DaemonStats stats_before;
  std::uint64_t stats_polls = 0;
  try {
    api::Client sc(socket_path);
    stats_before = poll_stats(sc);
    ++stats_polls;
    if (stats_before.requests_total !=
        static_cast<double>(verify_requests)) {
      std::fprintf(stderr,
                   "bench_serve: stats FAIL — daemon counts %.0f requests, "
                   "bench issued %llu (is another client using it?)\n",
                   stats_before.requests_total,
                   static_cast<unsigned long long>(verify_requests));
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: stats poll failed: %s\n", e.what());
    return 1;
  }

  // --- Phase 3: open-loop load. ---
  const auto total =
      static_cast<std::uint64_t>(seconds * qps);
  const double period_ns = 1e9 / qps;
  std::atomic<std::uint64_t> next{0};
  LoadTotals totals;
  std::vector<std::vector<std::uint64_t>> lat_ns(connections);
  std::mutex print_mutex;
  const Clock::time_point t0 = Clock::now();
  std::atomic<Clock::duration::rep> last_done{0};

  auto worker = [&](std::size_t w) {
    try {
      api::Client c(socket_path);
      std::vector<std::uint64_t>& lats = lat_ns[w];
      lats.reserve(total / connections + 1);
      while (true) {
        const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) {
          return;
        }
        const Clock::time_point scheduled =
            t0 + std::chrono::nanoseconds(
                     static_cast<std::int64_t>(static_cast<double>(i) * period_ns));
        std::this_thread::sleep_until(scheduled);
        const std::size_t kind = i % 10;  // 0-5 point, 6-8 region, 9 what-if
        const std::string* request = nullptr;
        if (kind < 6) {
          request = &points[i % kPointPool].request;
        } else if (kind < 9) {
          request = &regions[i % kStripPool].request;
        } else {
          // Rebuilt per request (index varies); still a no-op move.
          static thread_local std::string buf;
          buf = noop_move_request(i % mirror.camera_count());
          request = &buf;
        }
        const std::optional<std::string> raw = c.try_request(*request);
        const Clock::time_point done = Clock::now();
        if (!raw.has_value()) {
          totals.errors.fetch_add(1, std::memory_order_relaxed);
          return;  // daemon drained mid-run: counted, bench fails
        }
        lats.push_back(static_cast<std::uint64_t>(
            std::chrono::nanoseconds(done - scheduled).count()));
        last_done.store((done - t0).count(), std::memory_order_relaxed);
        const api::WireObject obj = api::parse_flat_object(*raw);
        bool good = false;
        if (kind < 6) {
          totals.points.fetch_add(1, std::memory_order_relaxed);
          good = point_matches(obj, points[i % kPointPool].expect, digest_hex);
        } else if (kind < 9) {
          totals.regions.fetch_add(1, std::memory_order_relaxed);
          good = region_matches(obj, regions[i % kStripPool].expect, digest_hex);
        } else {
          totals.what_ifs.fetch_add(1, std::memory_order_relaxed);
          good = api::get_bool(obj, "ok") &&
                 api::get_string(obj, "digest") == digest_hex;
        }
        if (!good) {
          totals.mismatches.fetch_add(1, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lock(print_mutex);
          std::fprintf(stderr, "bench_serve: load FAIL request %llu: %s\n",
                       static_cast<unsigned long long>(i), raw->c_str());
        }
      }
    } catch (const std::exception& e) {
      totals.errors.fetch_add(1, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(print_mutex);
      std::fprintf(stderr, "bench_serve: worker %zu died: %s\n", w, e.what());
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (std::size_t w = 0; w < connections; ++w) {
    workers.emplace_back(worker, w);
  }
  for (std::thread& t : workers) {
    t.join();
  }

  std::vector<std::uint64_t> all;
  for (const std::vector<std::uint64_t>& v : lat_ns) {
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  const double elapsed_s =
      std::chrono::duration<double>(
          Clock::duration(last_done.load(std::memory_order_relaxed)))
          .count();
  const double achieved_qps =
      elapsed_s > 0.0 ? static_cast<double>(all.size()) / elapsed_s : 0.0;
  const std::uint64_t load_mismatches = totals.mismatches.load();
  const std::uint64_t load_errors = totals.errors.load();
  std::printf(
      "load: %zu answered of %llu offered (%.1f qps offered, %.1f achieved)\n"
      "      p50 %.0f us  p90 %.0f us  p99 %.0f us  max %.0f us\n"
      "      mismatches %llu, errors %llu\n",
      all.size(), static_cast<unsigned long long>(total), qps, achieved_qps,
      percentile_us(all, 0.50), percentile_us(all, 0.90),
      percentile_us(all, 0.99), percentile_us(all, 1.0),
      static_cast<unsigned long long>(load_mismatches),
      static_cast<unsigned long long>(load_errors));

  // --- Stats bracket, closing poll: the per-type deltas across the load
  // window must equal what this bench issued, request for request.
  DaemonStats stats_after;
  bool stats_counts_match = false;
  try {
    api::Client sc(socket_path);
    stats_after = poll_stats(sc);
    ++stats_polls;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: closing stats poll failed: %s\n", e.what());
    return 1;
  }
  const double d_points = stats_after.point_count - stats_before.point_count;
  const double d_regions = stats_after.region_count - stats_before.region_count;
  const double d_what_ifs = stats_after.what_if_count - stats_before.what_if_count;
  // Between the two polls the daemon also answered the opening stats
  // request itself, so requests_total grows by the load plus one.
  const double d_requests = stats_after.requests_total - stats_before.requests_total;
  stats_counts_match =
      d_points == static_cast<double>(totals.points.load()) &&
      d_regions == static_cast<double>(totals.regions.load()) &&
      d_what_ifs == static_cast<double>(totals.what_ifs.load()) &&
      d_requests == static_cast<double>(all.size() + 1);
  const double d_hits = stats_after.cache_hits - stats_before.cache_hits;
  const double d_misses = stats_after.cache_misses - stats_before.cache_misses;
  const double d_lookups = d_hits + d_misses;
  const double cache_hit_rate = d_lookups > 0.0 ? d_hits / d_lookups : 0.0;
  std::printf(
      "stats: daemon point p50/p90/p99 %.0f/%.0f/%.0f us, region "
      "%.0f/%.0f/%.0f us, cache hit rate %.3f, counts %s\n",
      stats_after.point_p[0], stats_after.point_p[1], stats_after.point_p[2],
      stats_after.region_p[0], stats_after.region_p[1], stats_after.region_p[2],
      cache_hit_rate, stats_counts_match ? "match" : "MISMATCH");
  if (!stats_counts_match) {
    std::fprintf(stderr,
                 "bench_serve: stats FAIL — load deltas point %.0f/%llu "
                 "region %.0f/%llu what_if %.0f/%llu requests %.0f/%zu+1\n",
                 d_points, static_cast<unsigned long long>(totals.points.load()),
                 d_regions, static_cast<unsigned long long>(totals.regions.load()),
                 d_what_ifs,
                 static_cast<unsigned long long>(totals.what_ifs.load()),
                 d_requests, all.size());
  }
  // --- Phase 4: closed-loop batched point load, stats-bracketed so the
  // batch telemetry deltas belong to exactly this phase.
  const double batch_seconds = std::min(seconds, 5.0);
  const ClosedLoopResult batched = closed_loop_point_load(
      socket_path, points, digest_hex, connections, batch_seconds);
  DaemonStats stats_final;
  try {
    api::Client sc(socket_path);
    stats_final = poll_stats(sc);
    ++stats_polls;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: final stats poll failed: %s\n", e.what());
    return 1;
  }
  const double d_batched_requests =
      stats_final.batched_requests - stats_after.batched_requests;
  const double d_batch_rounds = stats_final.batch_rounds - stats_after.batch_rounds;
  std::printf(
      "batched load: %zu points in %.2f s (%.1f qps), p50 %.0f us p99 %.0f us, "
      "%llu mismatches, %.0f coalesced requests in %.0f rounds\n",
      batched.answered, batched.elapsed_s, batched.qps, batched.p50_us,
      batched.p99_us, static_cast<unsigned long long>(batched.mismatches),
      d_batched_requests, d_batch_rounds);

  // Every request this process sent to the daemon, stats polls
  // included — the count a later stats/top poll of an otherwise idle
  // daemon reports as requests_total.
  const std::uint64_t requests_issued_total =
      verify_requests + stats_polls + static_cast<std::uint64_t>(all.size()) +
      static_cast<std::uint64_t>(batched.answered);

  const bool ok = verify_mismatches == 0 && load_mismatches == 0 &&
                  load_errors == 0 && all.size() == total &&
                  stats_counts_match && batched.mismatches == 0 &&
                  batched.errors == 0;
  char buf[6144];
  std::snprintf(
      buf, sizeof buf,
      "{\n"
      "  \"schema\": \"fvc.bench_serve/5\",\n"
      "  \"bench\": \"serve_open_loop\",\n"
      "  \"digest\": \"%s\",\n"
      "  \"n\": %zu,\n"
      "  \"seed\": %zu,\n"
      "  \"grid_side\": %zu,\n"
      "  \"seconds\": %.3f,\n"
      "  \"target_qps\": %.1f,\n"
      "  \"connections\": %zu,\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"host\": %s,\n"
      "  \"requests_issued_total\": %llu,\n"
      "  \"verify\": {\"requests\": %llu, \"mismatches\": %llu},\n"
      "  \"load\": {\n"
      "    \"offered\": %llu,\n"
      "    \"answered\": %zu,\n"
      "    \"points\": %llu,\n"
      "    \"regions\": %llu,\n"
      "    \"what_ifs\": %llu,\n"
      "    \"achieved_qps\": %.1f,\n"
      "    \"p50_us\": %.1f,\n"
      "    \"p90_us\": %.1f,\n"
      "    \"p99_us\": %.1f,\n"
      "    \"max_us\": %.1f,\n"
      "    \"mismatches\": %llu,\n"
      "    \"errors\": %llu\n"
      "  },\n"
      "  \"batched_load\": {\n"
      "    \"seconds\": %.3f,\n"
      "    \"connections\": %zu,\n"
      "    \"answered\": %zu,\n"
      "    \"point_qps\": %.1f,\n"
      "    \"p50_us\": %.1f,\n"
      "    \"p90_us\": %.1f,\n"
      "    \"p99_us\": %.1f,\n"
      "    \"mismatches\": %llu,\n"
      "    \"errors\": %llu,\n"
      "    \"batched_requests_delta\": %.0f,\n"
      "    \"batch_rounds_delta\": %.0f\n"
      "  },\n"
      "  \"daemon\": {\n"
      "    \"stats_counts_match\": %s,\n"
      "    \"requests_total\": %.0f,\n"
      "    \"errors_total\": %.0f,\n"
      "    \"point_p50_us\": %.1f,\n"
      "    \"point_p90_us\": %.1f,\n"
      "    \"point_p99_us\": %.1f,\n"
      "    \"region_p50_us\": %.1f,\n"
      "    \"region_p90_us\": %.1f,\n"
      "    \"region_p99_us\": %.1f,\n"
      "    \"what_if_p50_us\": %.1f,\n"
      "    \"what_if_p90_us\": %.1f,\n"
      "    \"what_if_p99_us\": %.1f,\n"
      "    \"cache_hit_rate\": %.4f,\n"
      "    \"cache_hits_delta\": %.0f,\n"
      "    \"cache_misses_delta\": %.0f\n"
      "  },\n"
      "  \"results_bit_identical\": %s\n"
      "}\n",
      digest_hex.c_str(), n, seed, grid_side, seconds, qps, connections,
      std::thread::hardware_concurrency(), fvc::tools::host_json().c_str(),
      static_cast<unsigned long long>(requests_issued_total),
      static_cast<unsigned long long>(verify_requests),
      static_cast<unsigned long long>(verify_mismatches),
      static_cast<unsigned long long>(total), all.size(),
      static_cast<unsigned long long>(totals.points.load()),
      static_cast<unsigned long long>(totals.regions.load()),
      static_cast<unsigned long long>(totals.what_ifs.load()), achieved_qps,
      percentile_us(all, 0.50), percentile_us(all, 0.90),
      percentile_us(all, 0.99), percentile_us(all, 1.0),
      static_cast<unsigned long long>(load_mismatches),
      static_cast<unsigned long long>(load_errors), batch_seconds, connections,
      batched.answered, batched.qps, batched.p50_us, batched.p90_us,
      batched.p99_us, static_cast<unsigned long long>(batched.mismatches),
      static_cast<unsigned long long>(batched.errors), d_batched_requests,
      d_batch_rounds, stats_counts_match ? "true" : "false", stats_after.requests_total,
      stats_after.errors_total, stats_after.point_p[0], stats_after.point_p[1],
      stats_after.point_p[2], stats_after.region_p[0], stats_after.region_p[1],
      stats_after.region_p[2], stats_after.what_if_p[0],
      stats_after.what_if_p[1], stats_after.what_if_p[2], cache_hit_rate,
      d_hits, d_misses, ok ? "true" : "false");
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_serve: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  out << buf;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "bench_serve: failed writing %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
