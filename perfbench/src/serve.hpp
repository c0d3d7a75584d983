/// \file serve.hpp
/// \brief The serve harness: spawns `fvc_sim serve` on a generated camera
/// file, drives it with an open-loop Poisson mix and then a closed-loop
/// saturation phase, and checks every answer bit-exactly against an
/// in-process mirror Session chosen by the answer's digest.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fvc/core/camera.hpp"

namespace fvcbench {

struct ServeConfig {
  std::string fvc_sim;    ///< the fvc_sim binary
  std::string work_dir;   ///< camera file, socket and daemon log (relative)
  std::vector<fvc::core::Camera> cameras;  ///< the deployment the daemon loads
  std::size_t grid_side = 256;             ///< --grid-side (a workload parameter)
  double rate_qps = 100.0;     ///< open-loop Poisson arrival rate
  double open_seconds = 5.0;   ///< open-loop phase length
  double sat_seconds = 2.0;    ///< closed-loop saturation phase length
  std::uint64_t seed = 1;
  /// Daemon starts timed for setup_s before each load round.
  std::size_t spawns_per_round = 10;
  /// Load rounds, each against a fresh daemon; the phases are split evenly.
  std::size_t rounds = 3;
};

/// Client-side figures of one op class.
struct OpLatency {
  Samples latency_us;  ///< from the scheduled send time (open loop)
  Samples service_us;  ///< from the actual send time
};

struct ServeOutcome {
  Samples setup_s;           ///< spawn -> first `info` answer, per spawn
  double peak_rss_mb = 0.0;  ///< daemon VmHWM (median over rounds)
  OpLatency point, points, region, what_if;
  std::size_t open_requests = 0;
  double generator_lag_p99_ms = 0.0;
  double generator_lag_bound_ms = 0.0;  ///< the validity bound it was held to
  double sat_qps = 0.0;
  std::size_t sat_requests = 0;
  /// `stats` verb figures after the open-loop phase (medians over rounds).
  double daemon_p50_us[4] = {0, 0, 0, 0};  ///< point, batch, region, what_if
  double daemon_p99_us[4] = {0, 0, 0, 0};
  double coalesced_ratio = 0.0;
  double batch_size_p50 = 0.0;
  double cache_hit_ratio = 0.0;
  std::size_t connections = 1;
};

/// Run the harness.  Failures (ok:false, lost connection, a mismatched
/// field, an unknown digest, generator lag beyond its bound, a daemon that
/// does not drain to exit 130) are counted on `report`.
[[nodiscard]] ServeOutcome run_serve(const ServeConfig& cfg, Report& report);

/// Record the daemon-layer metrics of `out` as per-layer metrics.
void report_serve_layers(const ServeOutcome& out, Report& report);

}  // namespace fvcbench
