/// \file layers.hpp
/// \brief Per-layer probes of the traced run: each times the benchmark's own
/// calls into one module's public functions on the workload's deployment.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fvc/core/camera.hpp"
#include "fvc/core/grid.hpp"
#include "fvc/core/network.hpp"
#include "fvc/sim/trial.hpp"

namespace fvcbench {

/// Deploys the workload's network for one seed.
using DeployFn = std::function<fvc::core::Network(std::uint64_t seed)>;

/// deploy.ns_per_camera: median of `reps` deployments.
void probe_deploy(const DeployFn& deploy, std::size_t n, std::uint64_t seed, std::size_t reps,
                  Report& report);

/// io.load_cameras_ms: save `cameras` to `path`, then time
/// io::load_cameras_file (median of `reps`); the reload must be bit-exact.
void probe_io(const std::vector<fvc::core::Camera>& cameras, const std::string& path,
              std::size_t reps, Report& report);

/// The core engine on one deployment: build time and bytes, exact work
/// counts over the whole grid, stage costs on a seeded row sample, the
/// computed atan2 share, and the two point paths (checked against each
/// other).  `build_reps` engines are constructed for the build median.
void probe_core(const fvc::core::Network& net, const fvc::core::DenseGrid& grid, double theta,
                std::uint64_t seed, std::size_t build_reps, double atan2_ns, Report& report);

/// ns per classified candidate on a fixed calibration engine (host block).
[[nodiscard]] double calibrate_classify_ns();

/// One Monte-Carlo trial replayed by the benchmark: deploy, engine build,
/// early-exit `row_events` loop — the body of sim::run_trial_events.
struct ReplayedTrial {
  fvc::sim::TrialEvents events;
  double ms = 0.0;
  std::size_t rows = 0;
  bool early_exit = false;
};
[[nodiscard]] ReplayedTrial replay_trial(const DeployFn& deploy, std::uint64_t seed,
                                         const fvc::core::DenseGrid& grid, double theta);

/// sim.trial_ms.*, sim.rows_per_trial, sim.early_exit_ratio from replays.
void report_trials(const std::vector<ReplayedTrial>& trials, Report& report);

/// Whole-grid event bits by the scalar oracle (core::evaluate_region_scalar).
[[nodiscard]] fvc::sim::TrialEvents oracle_events(const fvc::core::Network& net,
                                                  const fvc::core::DenseGrid& grid,
                                                  double theta);

/// sim.pool_utilization (Σ worker busy ÷ threads × section wall) and
/// sim.block_imbalance (slowest ÷ mean worker busy, wall-weighted over
/// sections) from the pool slices of one traced call.
void report_pool(const SelfTimes& traced_call, std::size_t threads, Report& report);

/// In-process api::Session and wire (handle_query) costs per op on one
/// deployment: api.session.<op>_us and api.wire.<op>_us.
void probe_api(const std::vector<fvc::core::Camera>& cameras, double theta,
               std::size_t grid_side, std::uint64_t seed, Report& report);

}  // namespace fvcbench
