/// \file prom_export.hpp
/// \brief Prometheus text-exposition export of a ServeStatsSnapshot.
///
/// Emitted for `fvc serve --prom <path> --prom-every <ms>`: the daemon
/// periodically renders its telemetry snapshot in the Prometheus text
/// format (version 0.0.4 — `# HELP` / `# TYPE` comments followed by
/// sample lines) and atomically replaces the file, so a node-exporter
/// textfile collector or any scraper tailing the path always reads a
/// complete document.
///
/// Name mapping from `fvc.serve_stats/2` (see ARCHITECTURE.md):
///   fvc_serve_uptime_seconds                     gauge
///   fvc_serve_connections_total                  counter
///   fvc_serve_connections_active                 gauge
///   fvc_serve_in_flight_requests                 gauge
///   fvc_serve_requests_total{type=...}           counter (one per ReqType)
///   fvc_serve_errors_total                       counter
///   fvc_serve_bytes_total{direction="in"|"out"}  counter
///   fvc_serve_request_latency_microseconds{type,quantile}  gauge
///   fvc_serve_cache_events_total{event=hit|miss|carry}  counter
///   fvc_serve_cache_tiles / _cache_capacity_tiles / _cache_bytes  gauge
///     (row slots: a "tile" is one grid row)
///   fvc_serve_watchdog_stalls_total              counter
/// Quantile samples are emitted only for types that have seen traffic
/// (an all-zero quantile for an idle type would read as "instant").

#pragma once

#include <string>

#include "fvc/obs/serve_stats.hpp"

namespace fvc::obs {

/// Render `snap` in the Prometheus text exposition format.
[[nodiscard]] std::string to_prometheus(const ServeStatsSnapshot& snap);

/// Render and atomically write (tmp + rename) to `path`.
/// \throws std::runtime_error on any open/write/rename failure.
void write_prometheus_file_atomic(const std::string& path,
                                  const ServeStatsSnapshot& snap);

}  // namespace fvc::obs
