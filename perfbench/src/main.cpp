/// fvcbench — the fvc benchmark harness (see perfbench/README.md).
///
///   fvcbench --workload mc_phase|region_cluster|serve_mixed --seed N
///            --seconds S --trace 0|1 --fvc-sim PATH --out-dir DIR
///            [--git-sha SHA]
///
/// Untraced runs (--trace 0) measure the end-to-end metrics; traced runs
/// (--trace 1) install a trace session, wrap every call into a layer in a
/// benchmark span and report the per-layer metrics.  Either way the last
/// stdout line is {"correct", "attempted", "failed", "metrics"} and the
/// exit code is nonzero when any correctness check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "serve.hpp"

#include "fvc/analysis/csa.hpp"
#include "fvc/core/camera_group.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/deploy/cluster.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/trace_export.hpp"
#include "fvc/sim/parallel_region.hpp"
#include "fvc/sim/phase_scan.hpp"
#include "fvc/sim/thread_pool.hpp"
#include "fvc/stats/rng.hpp"

namespace {

using namespace fvcbench;
using fvc::core::Camera;
using fvc::core::DenseGrid;
using fvc::core::Network;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string fvc_sim;
  std::string out_dir;
  std::string git_sha = "unknown";
};

/// Everything a workload body needs.
struct Ctx {
  Args args;
  Host host;
  Report report;
  std::size_t threads = 1;  ///< nproc: the default worker count of the program
};

double secs_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

/// The two-group heterogeneous profile shared by every workload: omni
/// cameras and 2-rad sector cameras, radii scaled ~ 1/sqrt(n) so the
/// candidate count per point stays comparable across sizes.
fvc::core::HeterogeneousProfile fleet_profile(std::size_t n) {
  const double scale = std::sqrt(1000.0 / static_cast<double>(n));
  return fvc::core::HeterogeneousProfile(std::vector<fvc::core::CameraGroupSpec>{
      {0.5, 0.08 * scale, fvc::geom::kTwoPi}, {0.5, 0.12 * scale, 2.0}});
}

std::vector<Camera> cameras_of(const Network& net) {
  return {net.cameras().begin(), net.cameras().end()};
}

/// The traced phase: a trace session installed around `body`, inside one
/// root span, then self times, the reconciliation check and the trace file.
void traced_phase(Ctx& ctx, const std::function<void()>& body) {
  fvc::obs::TraceSession session;
  session.install();
  const std::uint64_t t0 = now_ns();
  {
    const Span root("bench.run", kBenchCat);
    body();
  }
  const double wall_ms = static_cast<double>(now_ns() - t0) / 1e6;
  session.uninstall();
  const fvc::obs::TraceSession::Drained drained = session.drain();
  const SelfTimes st = analyse_trace(drained, "bench.run");
  ctx.report.self_times(st.self_ms);
  // The layer spans must account for the traced wall time: the root's self
  // time is the part of it spent in no layer span.
  constexpr double kTolerancePct = 1.0;
  const double unattributed_pct = st.root_self_ms / wall_ms * 100.0;
  ctx.report.check(st.evicted == 0 && st.unmatched == 0 && unattributed_pct <= kTolerancePct,
                   "trace: layer self times add up to the traced wall time within 1%, "
                   "no span evicted or unmatched");
  ctx.report.layer("obs.unattributed_pct", "%", unattributed_pct, 1);
  fvc::obs::TraceExportMeta meta;
  meta.process_name = "fvcbench";
  meta.labels = {{"workload", ctx.args.workload}, {"seed", std::to_string(ctx.args.seed)}};
  const std::string path = ctx.args.out_dir + "/trace_" + ctx.args.workload + "_" +
                           std::to_string(ctx.args.seed) + ".json";
  fvc::obs::write_chrome_trace_file(path, drained, meta);
  ctx.report.param("trace_file", path);
}

/// Runs `call` untraced and traced, alternated `pairs` times.  Returns the
/// tracing overhead (obs.trace_overhead_pct) and reports the pool figures
/// of the last traced call.
double overhead_and_pool(Ctx& ctx, const std::function<void()>& call, int pairs) {
  Samples plain;
  Samples traced;
  SelfTimes last;
  for (int i = 0; i < pairs; ++i) {
    std::uint64_t t0 = now_ns();
    call();
    plain.add(static_cast<double>(now_ns() - t0));
    fvc::obs::TraceSession session;
    session.install();
    t0 = now_ns();
    call();
    traced.add(static_cast<double>(now_ns() - t0));
    session.uninstall();
    last = analyse_trace(session.drain(), "");
  }
  report_pool(last, ctx.threads, ctx.report);
  return (traced.median() - plain.median()) / plain.median() * 100.0;
}

/// sim.scaling_efficiency: T(1 thread) / (nproc * T(nproc threads)).
double scaling_efficiency(const std::function<void(std::size_t)>& call, std::size_t threads) {
  std::uint64_t t0 = now_ns();
  call(1);
  const auto t1 = static_cast<double>(now_ns() - t0);
  t0 = now_ns();
  call(threads);
  const auto tn = static_cast<double>(now_ns() - t0);
  return t1 / (static_cast<double>(threads) * tn);
}

/// Client figures of a serve run, under the names of the serve workload.
void serve_figures(const ServeOutcome& s, Report& report, bool as_layer) {
  const auto put = [&](const std::string& name, const std::string& unit, double v,
                       std::size_t n) {
    if (as_layer) {
      report.layer(name, unit, v, n);
    } else {
      report.info(name, unit, v, n);
    }
  };
  put("serve_point_p50_us", "us", s.point.latency_us.median(), s.point.latency_us.size());
  put("serve_point_p90_us", "us", s.point.latency_us.quantile(0.9), s.point.latency_us.size());
  put("serve_points_p50_us", "us", s.points.latency_us.median(), s.points.latency_us.size());
  put("serve_region_p50_us", "us", s.region.latency_us.median(), s.region.latency_us.size());
  put("serve_region_p90_us", "us", s.region.latency_us.quantile(0.9),
      s.region.latency_us.size());
  put("serve_whatif_p50_us", "us", s.what_if.latency_us.median(), s.what_if.latency_us.size());
  put("serve_whatif_p90_us", "us", s.what_if.latency_us.quantile(0.9),
      s.what_if.latency_us.size());
  put("serve_sat_qps", "req/s", s.sat_qps, s.sat_requests);
}

/// The daemon probe of a traced run: a short serve run on this workload's
/// deployment, reported under the api.daemon / api.transport / api.batch /
/// serve_* names.
void daemon_probe(Ctx& ctx, const std::vector<Camera>& cameras, std::size_t grid_side,
                  double rate_qps, double open_seconds, double sat_seconds) {
  ServeConfig cfg;
  cfg.fvc_sim = ctx.args.fvc_sim;
  cfg.work_dir = ctx.args.out_dir;
  cfg.cameras = cameras;
  cfg.grid_side = grid_side;
  cfg.rate_qps = rate_qps;
  cfg.open_seconds = open_seconds;
  cfg.sat_seconds = sat_seconds;
  cfg.seed = ctx.args.seed;
  cfg.spawns_per_round = 1;
  cfg.rounds = 1;
  const ServeOutcome s = run_serve(cfg, ctx.report);
  report_serve_layers(s, ctx.report);
  serve_figures(s, ctx.report, true);
}

// ---------------------------------------------------------------- mc_phase

constexpr std::size_t kMcN = 2000;
constexpr std::size_t kMcTrials = 16;  ///< trials per q point
const std::vector<double> kMcQ = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
constexpr std::size_t kMcMid = 3;  ///< q = 2: the probe deployment

fvc::sim::PhaseScanConfig mc_config(std::uint64_t master) {
  fvc::sim::PhaseScanConfig cfg;
  cfg.base.profile = fleet_profile(kMcN);
  cfg.base.n = kMcN;
  cfg.base.theta = fvc::geom::kPi / 4.0;
  cfg.q_values = kMcQ;
  cfg.trials = kMcTrials;
  cfg.master_seed = master;
  return cfg;
}

/// The TrialConfig run_phase_scan uses at q index i.
fvc::sim::TrialConfig mc_point(const fvc::sim::PhaseScanConfig& cfg, std::size_t i) {
  fvc::sim::TrialConfig t = cfg.base;
  const double csa = fvc::analysis::csa_necessary(static_cast<double>(t.n), t.theta);
  t.profile = t.profile.with_weighted_area(cfg.q_values[i] * csa);
  return t;
}

std::uint64_t mc_trial_seed(std::uint64_t master, std::size_t i, std::size_t t) {
  return fvc::stats::mix64(fvc::stats::mix64(master, i), t);
}

/// Replay every trial of q point `i` and compare the success counts with
/// the scan's; also re-check `oracle_trials` of them with the scalar oracle.
std::vector<ReplayedTrial> mc_replay_point(Ctx& ctx, const fvc::sim::PhaseScanConfig& cfg,
                                           const fvc::sim::PhasePoint& point,
                                           std::size_t oracle_trials) {
  const fvc::sim::TrialConfig tc = mc_point(cfg, point.index);
  const DenseGrid grid = tc.grid();
  const DeployFn deploy = [&tc](std::uint64_t s) { return fvc::sim::deploy(tc, s); };
  std::vector<ReplayedTrial> out;
  std::size_t nec = 0;
  std::size_t fv = 0;
  std::size_t suf = 0;
  for (std::size_t t = 0; t < cfg.trials; ++t) {
    const std::uint64_t seed = mc_trial_seed(cfg.master_seed, point.index, t);
    out.push_back(replay_trial(deploy, seed, grid, tc.theta));
    const fvc::sim::TrialEvents& ev = out.back().events;
    nec += ev.all_necessary ? 1 : 0;
    fv += ev.all_full_view ? 1 : 0;
    suf += ev.all_sufficient ? 1 : 0;
    if (t < oracle_trials) {
      const fvc::sim::TrialEvents o = oracle_events(deploy(seed), grid, tc.theta);
      ctx.report.check(o.all_necessary == ev.all_necessary &&
                           o.all_full_view == ev.all_full_view &&
                           o.all_sufficient == ev.all_sufficient,
                       "mc_phase: trial events equal the scalar oracle (q index " +
                           std::to_string(point.index) + ", trial " + std::to_string(t) + ")");
    }
  }
  ctx.report.check(nec == point.events.necessary.successes &&
                       fv == point.events.full_view.successes &&
                       suf == point.events.sufficient.successes,
                   "mc_phase: replayed success counts equal the scan's (q index " +
                       std::to_string(point.index) + ")");
  return out;
}

void run_mc(Ctx& ctx) {
  Report& R = ctx.report;
  R.param("n", static_cast<double>(kMcN));
  R.param("theta", "pi/4");
  R.param("q_values", "0.5,1,1.5,2,2.5,3");
  R.param("trials_per_q", static_cast<double>(kMcTrials));
  R.param("grid", "paper rule: ceil(sqrt(n ln n)) per side");
  R.param("deployment", "uniform, 2 groups (omni + 2 rad sector)");
  const std::uint64_t master0 = fvc::stats::mix64(ctx.args.seed, 0x3C);

  if (!ctx.args.trace) {
    // setup_s: what precedes a trial's first grid row — profile and CSA
    // set-up, deployment and engine (index) build — at the lowest q, run
    // serially before every scan, so the samples span the run the way the
    // scans do.  The pool start is left out: a thread start is a scheduler
    // wake-up whose median swings twofold with the host's load.
    constexpr std::uint64_t kSetupsPerScan = 8;
    Samples setup;
    Samples scan_ms;
    double trials = 0.0;
    double wall = 0.0;
    std::vector<fvc::sim::PhasePoint> first;
    const std::uint64_t start = now_ns();
    for (std::uint64_t rep = 0; rep < 2 || secs_since(start) < ctx.args.seconds; ++rep) {
      const fvc::sim::PhaseScanConfig cfg = mc_config(fvc::stats::mix64(ctx.args.seed, 0x3C + rep));
      for (std::uint64_t r = 0; r < kSetupsPerScan; ++r) {
        const std::uint64_t t0 = now_ns();
        const fvc::sim::TrialConfig tc = mc_point(cfg, 0);
        const Network net = fvc::sim::deploy(tc, mc_trial_seed(cfg.master_seed, 0, r));
        const fvc::core::GridEvalEngine engine(net, tc.grid(), tc.theta);
        setup.add(secs_since(t0));
      }
      const std::uint64_t t0 = now_ns();
      std::vector<fvc::sim::PhasePoint> pts = fvc::sim::run_phase_scan(cfg);
      const double s = secs_since(t0);
      wall += s;
      scan_ms.add(s * 1e3);
      std::size_t done = 0;
      for (const fvc::sim::PhasePoint& p : pts) {
        done += p.events.full_view.trials;
      }
      trials += static_cast<double>(done);
      const std::size_t want = cfg.q_values.size() * cfg.trials;
      R.ops(want, want - std::min(want, done), "mc_phase: trials completed");
      if (rep == 0) {
        first = std::move(pts);
      }
    }
    const double rss = peak_rss_mb();
    // Correctness: one seeded q point of the first scan replayed in full,
    // two of its trials re-checked by the scalar oracle.
    if (first.size() == kMcQ.size()) {
      const std::size_t j = ctx.args.seed % kMcQ.size();
      (void)mc_replay_point(ctx, mc_config(master0), first[j], 2);
    } else {
      R.check(false, "mc_phase: scan returned every q point");
    }
    R.e2e("setup_s", "s", setup.median(), setup.size());
    R.e2e("peak_rss_mb", "MiB", rss, 1);
    // Medians over scans, so a burst of foreign load on the host moves one
    // scan, not the figure.
    const double per_scan = static_cast<double>(kMcQ.size() * kMcTrials);
    R.e2e("throughput_per_s", "1/s", per_scan / (scan_ms.median() / 1e3),
          static_cast<std::size_t>(trials));
    R.e2e("latency_p50_ms", "ms", scan_ms.median(), scan_ms.size());
    R.info("mc_trials_per_s", "trials/s", trials / wall, static_cast<std::size_t>(trials));
    R.info("mc_scan_ms.p50", "ms", scan_ms.median(), scan_ms.size());
    return;
  }

  const double overhead = overhead_and_pool(
      ctx, [&] { (void)fvc::sim::run_phase_scan(mc_config(master0)); }, 2);
  R.layer("obs.trace_overhead_pct", "%", overhead, 2);
  traced_phase(ctx, [&] {
    const fvc::sim::PhaseScanConfig cfg = mc_config(master0);
    std::vector<fvc::sim::PhasePoint> pts;
    {
      const Span span("bench.sim.phase_scan", kBenchCat);
      pts = fvc::sim::run_phase_scan(cfg);
    }
    // The traced replay: every trial of the scan, checked against its counts.
    std::vector<ReplayedTrial> trials;
    for (const fvc::sim::PhasePoint& p : pts) {
      std::vector<ReplayedTrial> t = mc_replay_point(ctx, cfg, p, p.index == kMcMid ? 2 : 0);
      trials.insert(trials.end(), t.begin(), t.end());
    }
    R.check(pts.size() == kMcQ.size(), "mc_phase: traced scan returned every q point");
    report_trials(trials, R);

    const fvc::sim::TrialConfig tc = mc_point(cfg, kMcMid);
    const DeployFn deploy = [&tc](std::uint64_t s) { return fvc::sim::deploy(tc, s); };
    const Network net = deploy(mc_trial_seed(master0, kMcMid, 0));
    probe_deploy(deploy, kMcN, ctx.args.seed, 15, R);
    probe_io(cameras_of(net), ctx.args.out_dir + "/mc_cameras.txt", 5, R);
    probe_core(net, tc.grid(), tc.theta, ctx.args.seed, 9, ctx.host.atan2_ns, R);
    R.layer("core.atan2_ns", "ns", ctx.host.atan2_ns, 7);

    fvc::sim::PhaseScanConfig one = cfg;
    one.q_values = {kMcQ[kMcMid]};
    one.trials = 4 * ctx.threads;
    {
      const Span span("bench.sim.scaling", kBenchCat);
      R.layer("sim.scaling_efficiency", "ratio", scaling_efficiency(
                                                     [&](std::size_t th) {
                                                       one.threads = th;
                                                       (void)fvc::sim::run_phase_scan(one);
                                                     },
                                                     ctx.threads),
              2);
    }
    probe_api(cameras_of(net), tc.theta, tc.grid().side(), ctx.args.seed, R);
    daemon_probe(ctx, cameras_of(net), tc.grid().side(), 200.0, 3.0, 1.0);
  });
}

// ---------------------------------------------------------- region_cluster

constexpr std::size_t kRegionN = 100000;
constexpr std::size_t kRegionSide = 1024;
constexpr std::size_t kRegionClusters = 8;
constexpr double kRegionSigma = 0.02;
constexpr std::size_t kRegionDeployments = 8;  ///< deployments one untraced run rotates over

Network region_deploy(std::uint64_t seed) {
  fvc::deploy::GaussianClusterConfig gc;
  gc.count = kRegionN;
  gc.clusters = kRegionClusters;
  gc.sigma = kRegionSigma;
  fvc::stats::Pcg32 rng = fvc::stats::make_child_rng(seed, 0);
  return fvc::deploy::deploy_gaussian_cluster_network(fleet_profile(kRegionN), gc, rng);
}

/// Scalar-oracle row statistics, folded exactly like evaluate_region_scalar.
fvc::core::GridRowStats oracle_row(const Network& net, const DenseGrid& grid, double theta,
                                   std::size_t row) {
  fvc::core::GridRowStats s;
  const std::size_t k = fvc::core::implied_k(theta);
  std::vector<double> dirs;
  for (std::size_t col = 0; col < grid.side(); ++col) {
    net.viewed_directions_into(grid.point(row, col), dirs);
    const fvc::core::FullViewResult fv = fvc::core::full_view_covered(dirs, theta);
    s.covered_1 += dirs.empty() ? 0 : 1;
    s.k_covered_ok += dirs.size() >= k ? 1 : 0;
    s.full_view_ok += fv.covered ? 1 : 0;
    s.necessary_ok += fvc::core::meets_necessary_condition(dirs, theta) ? 1 : 0;
    s.sufficient_ok += fvc::core::meets_sufficient_condition(dirs, theta) ? 1 : 0;
    s.min_max_gap = col == 0 ? fv.max_gap : std::min(s.min_max_gap, fv.max_gap);
    s.max_max_gap = col == 0 ? fv.max_gap : std::max(s.max_max_gap, fv.max_gap);
  }
  return s;
}

bool same_stats(const fvc::core::RegionCoverageStats& a, const fvc::core::RegionCoverageStats& b) {
  return a.total_points == b.total_points && a.covered_1 == b.covered_1 &&
         a.necessary_ok == b.necessary_ok && a.full_view_ok == b.full_view_ok &&
         a.sufficient_ok == b.sufficient_ok && a.k_covered_ok == b.k_covered_ok &&
         a.min_max_gap == b.min_max_gap && a.max_max_gap == b.max_max_gap;
}

bool same_row(const fvc::core::GridRowStats& a, const fvc::core::GridRowStats& b) {
  return a.covered_1 == b.covered_1 && a.necessary_ok == b.necessary_ok &&
         a.full_view_ok == b.full_view_ok && a.sufficient_ok == b.sufficient_ok &&
         a.k_covered_ok == b.k_covered_ok && a.min_max_gap == b.min_max_gap &&
         a.max_max_gap == b.max_max_gap;
}

void run_region(Ctx& ctx) {
  Report& R = ctx.report;
  const double theta = fvc::geom::kPi / 4.0;
  const DenseGrid grid(kRegionSide);
  R.param("n", static_cast<double>(kRegionN));
  R.param("grid_side", static_cast<double>(kRegionSide));
  R.param("theta", "pi/4");
  R.param("deployment", "Gaussian clusters: 8 centres, sigma 0.02, 2 groups");
  R.param("deployments_per_run", static_cast<double>(kRegionDeployments));

  if (!ctx.args.trace) {
    // The scans rotate over kRegionDeployments clustered deployments drawn
    // from the seed (whole cycles only): one deployment's cluster overlaps
    // swing the scan cost by a fifth, the average over eight does not.  A
    // cycle's mean is the unit; the figures are medians over cycles, so a
    // burst of foreign load on the host moves one cycle, not the figure.
    Samples setup;      // per cycle: mean deploy + engine build, s
    Samples scan_ms;    // per cycle: mean whole-grid scan, ms
    std::vector<std::vector<fvc::core::RegionCoverageStats>> results(kRegionDeployments);
    std::size_t scans = 0;
    double cycle_setup = 0.0;
    double cycle_scan = 0.0;
    const std::uint64_t start = now_ns();
    while (scans % kRegionDeployments != 0 || secs_since(start) < ctx.args.seconds) {
      const std::size_t k = scans % kRegionDeployments;
      std::uint64_t t0 = now_ns();
      const Network net = region_deploy(fvc::stats::mix64(ctx.args.seed, k));
      {
        const fvc::core::GridEvalEngine engine(net, grid, theta);
        cycle_setup += secs_since(t0);
      }
      if (scans == 0) {  // warm-up: thread start, first page faults
        (void)fvc::sim::evaluate_region_parallel(net, grid, theta, ctx.threads);
      }
      t0 = now_ns();
      results[k].push_back(fvc::sim::evaluate_region_parallel(net, grid, theta, ctx.threads));
      cycle_scan += static_cast<double>(now_ns() - t0) / 1e6;
      if (++scans % kRegionDeployments == 0) {
        setup.add(cycle_setup / kRegionDeployments);
        scan_ms.add(cycle_scan / kRegionDeployments);
        cycle_setup = cycle_scan = 0.0;
      }
    }
    const double rss = peak_rss_mb();
    // Correctness, on two seeded deployments: every parallel scan bitwise
    // equal to the 1-thread engine scan, and a seeded row sample equal to
    // the scalar oracle.
    fvc::stats::Pcg32 rng = fvc::stats::make_child_rng(ctx.args.seed, 0x0A);
    for (int c = 0; c < 2; ++c) {
      const std::size_t k = (ctx.args.seed + static_cast<std::size_t>(c) * 5) % kRegionDeployments;
      const Network net = region_deploy(fvc::stats::mix64(ctx.args.seed, k));
      const fvc::core::GridEvalEngine engine(net, grid, theta);
      fvc::core::GridEvalScratch scratch;
      const fvc::core::RegionCoverageStats serial = engine.evaluate(scratch);
      std::uint64_t mismatched = 0;
      for (const auto& r : results[k]) {
        mismatched += same_stats(r, serial) ? 0 : 1;
      }
      R.ops(results[k].size(), mismatched,
            "region_cluster: parallel scan equals 1-thread evaluate");
      for (int i = 0; i < 4; ++i) {
        const std::size_t row = rng() % kRegionSide;
        R.check(same_row(oracle_row(net, grid, theta, row), engine.row_stats(row, scratch)),
                "region_cluster: row " + std::to_string(row) + " equals the scalar oracle");
      }
    }
    const double points = static_cast<double>(grid.size());
    const double rate = points / (scan_ms.median() / 1e3);
    R.e2e("setup_s", "s", setup.median(), scans);
    R.e2e("peak_rss_mb", "MiB", rss, 1);
    R.e2e("throughput_per_s", "1/s", rate, scans);
    R.e2e("latency_p50_ms", "ms", scan_ms.median(), scans);
    R.info("region_mpts_per_s", "Mpts/s", rate / 1e6, scans);
    return;
  }

  const Network net = region_deploy(fvc::stats::mix64(ctx.args.seed, 0));
  const double overhead = overhead_and_pool(
      ctx, [&] { (void)fvc::sim::evaluate_region_parallel(net, grid, theta, ctx.threads); }, 3);
  R.layer("obs.trace_overhead_pct", "%", overhead, 3);
  traced_phase(ctx, [&] {
    {
      const Span span("bench.sim.region_parallel", kBenchCat);
      (void)fvc::sim::evaluate_region_parallel(net, grid, theta, ctx.threads);
    }
    {
      const Span span("bench.sim.scaling", kBenchCat);
      R.layer("sim.scaling_efficiency", "ratio",
              scaling_efficiency(
                  [&](std::size_t th) {
                    (void)fvc::sim::evaluate_region_parallel(net, grid, theta, th);
                  },
                  ctx.threads),
              2);
    }
    std::vector<ReplayedTrial> trials;
    for (std::uint64_t t = 0; t < 5; ++t) {
      trials.push_back(
          replay_trial(region_deploy, fvc::stats::mix64(ctx.args.seed, 0x7B + t), grid, theta));
    }
    report_trials(trials, R);
    probe_deploy(region_deploy, kRegionN, ctx.args.seed, 3, R);
    probe_io(cameras_of(net), ctx.args.out_dir + "/region_cameras.txt", 3, R);
    probe_core(net, grid, theta, ctx.args.seed, 3, ctx.host.atan2_ns, R);
    R.layer("core.atan2_ns", "ns", ctx.host.atan2_ns, 7);
    probe_api(cameras_of(net), theta, 256, ctx.args.seed, R);
    daemon_probe(ctx, cameras_of(net), 256, 20.0, 3.0, 1.0);
  });
}

// ------------------------------------------------------------- serve_mixed

constexpr std::size_t kServeN = 10000;
constexpr std::size_t kServeSide = 256;
/// Open-loop arrivals per second: about a fifth of the closed-loop
/// saturation rate, so the session lock is held (mostly by what-if
/// rebuilds) well under half the time even when the host runs slow, and
/// the point median measures the uncontended path instead of jumping
/// between the uncontended and the queued mode.
constexpr double kServeRate = 75.0;
/// The serve command's default theta (api::SessionConfig's pi/2), used by
/// the in-process probes; the serve harness mirrors the theta `info` reports.
constexpr double kServeTheta = fvc::geom::kHalfPi;

Network serve_deploy(std::uint64_t seed) {
  fvc::stats::Pcg32 rng = fvc::stats::make_child_rng(seed, 0);
  return fvc::deploy::deploy_uniform_network(fleet_profile(kServeN), kServeN, rng);
}

void run_serve_mixed(Ctx& ctx) {
  Report& R = ctx.report;
  R.param("n", static_cast<double>(kServeN));
  R.param("grid_side", static_cast<double>(kServeSide));
  R.param("rate_qps", kServeRate);
  R.param("mix", "60% point, 10% points(64), 20% region strips, 10% what_if add/remove");
  const Network net = serve_deploy(ctx.args.seed);
  ServeConfig cfg;
  cfg.fvc_sim = ctx.args.fvc_sim;
  cfg.work_dir = ctx.args.out_dir;
  cfg.cameras = cameras_of(net);
  cfg.grid_side = kServeSide;
  cfg.rate_qps = kServeRate;
  cfg.seed = ctx.args.seed;

  if (!ctx.args.trace) {
    cfg.open_seconds = 0.6 * ctx.args.seconds;
    cfg.sat_seconds = 0.4 * ctx.args.seconds;
    const ServeOutcome s = run_serve(cfg, R);
    R.e2e("setup_s", "s", s.setup_s.median(), s.setup_s.size());
    R.e2e("peak_rss_mb", "MiB", s.peak_rss_mb, 1);
    R.e2e("throughput_per_s", "1/s", s.sat_qps, s.sat_requests);
    // The 64-point `points` request: the read path at a size where engine
    // work, not scheduler wake-ups, sets the time.
    R.e2e("latency_p50_ms", "ms", s.points.latency_us.median() / 1e3,
          s.points.latency_us.size());
    serve_figures(s, R, false);
    R.info("serve.generator_lag_ms", "ms", s.generator_lag_p99_ms, s.open_requests);
    R.info("serve.generator_lag_bound_ms", "ms", s.generator_lag_bound_ms, 1);
    R.info("serve.connections", "count", static_cast<double>(s.connections), 1);
    return;
  }

  // Tracing overhead on the client: the same open-loop phase untraced, then
  // traced (inside the traced phase below).
  cfg.open_seconds = 0.3 * ctx.args.seconds;
  cfg.sat_seconds = 0.0;
  cfg.spawns_per_round = 1;
  cfg.rounds = 1;
  const ServeOutcome plain = run_serve(cfg, R);
  const DenseGrid grid(kServeSide);
  const double theta = kServeTheta;
  (void)overhead_and_pool(
      ctx, [&] { (void)fvc::sim::evaluate_region_parallel(net, grid, theta, ctx.threads); }, 1);
  traced_phase(ctx, [&] {
    {
      const Span span("bench.sim.scaling", kBenchCat);
      R.layer("sim.scaling_efficiency", "ratio",
              scaling_efficiency(
                  [&](std::size_t th) {
                    (void)fvc::sim::evaluate_region_parallel(net, grid, theta, th);
                  },
                  ctx.threads),
              2);
    }
    std::vector<ReplayedTrial> trials;
    for (std::uint64_t t = 0; t < 9; ++t) {
      trials.push_back(
          replay_trial(serve_deploy, fvc::stats::mix64(ctx.args.seed, 0x7B + t), grid, theta));
    }
    report_trials(trials, R);
    probe_deploy(serve_deploy, kServeN, ctx.args.seed, 9, R);
    probe_io(cfg.cameras, ctx.args.out_dir + "/serve_cameras_probe.txt", 5, R);
    probe_core(net, grid, theta, ctx.args.seed, 9, ctx.host.atan2_ns, R);
    R.layer("core.atan2_ns", "ns", ctx.host.atan2_ns, 7);
    probe_api(cfg.cameras, theta, kServeSide, ctx.args.seed, R);
    ServeConfig traced = cfg;
    traced.sat_seconds = 0.1 * ctx.args.seconds;
    const ServeOutcome s = run_serve(traced, R);
    report_serve_layers(s, R);
    serve_figures(s, R, true);
    const double p = plain.point.service_us.median();
    R.layer("obs.trace_overhead_pct", "%", (s.point.service_us.median() - p) / p * 100.0, 2);
  });
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--fvc-sim") {
      a.fvc_sim = v;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (a.workload.empty() || a.fvc_sim.empty() || a.out_dir.empty() || !(a.seconds > 0.0)) {
    throw std::invalid_argument("need --workload, --fvc-sim, --out-dir and --seconds > 0");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    for (const char* var : {"FVC_FORCE_KERNEL", "FVC_FORCE_INDEX"}) {
      const char* v = std::getenv(var);
      if (v != nullptr && *v != '\0') {
        std::fprintf(stderr, "fvcbench: refusing to run with %s set: the benchmark "
                             "measures the program's default dispatch\n", var);
        return 2;
      }
    }
    Ctx ctx;
    ctx.args = parse(argc, argv);
    ctx.threads = fvc::sim::default_thread_count();
    ctx.host = describe_host(ctx.args.git_sha);
    ctx.host.atan2_ns = calibrate_atan2_ns(ctx.args.seed);
    ctx.host.ns_per_candidate_classified = calibrate_classify_ns();
    ctx.report.param("workload", ctx.args.workload);
    ctx.report.param("seed", static_cast<double>(ctx.args.seed));
    ctx.report.param("seconds", ctx.args.seconds);
    ctx.report.param("threads", static_cast<double>(ctx.threads));
    ctx.report.param_json("host", host_json(ctx.host));
    if (ctx.args.workload == "mc_phase") {
      run_mc(ctx);
    } else if (ctx.args.workload == "region_cluster") {
      run_region(ctx);
    } else if (ctx.args.workload == "serve_mixed") {
      run_serve_mixed(ctx);
    } else {
      throw std::invalid_argument("unknown workload " + ctx.args.workload);
    }
    const std::string record = ctx.args.out_dir + "/record_" + ctx.args.workload + "_" +
                               std::to_string(ctx.args.seed) + "_t" +
                               (ctx.args.trace ? "1" : "0") + ".json";
    ctx.report.finish(ctx.args.trace, record);
    return ctx.report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fvcbench: %s\n", e.what());
    return 2;
  }
}
