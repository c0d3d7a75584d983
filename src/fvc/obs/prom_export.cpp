#include "fvc/obs/prom_export.hpp"

#include <cinttypes>
#include <cstdio>

#include "fvc/obs/json_export.hpp"

namespace fvc::obs {

namespace {

void add_header(std::string& out, const char* name, const char* help,
                const char* type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void add_sample_u64(std::string& out, const char* name, const char* labels,
                    std::uint64_t value) {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%s%s %" PRIu64 "\n", name, labels, value);
  out += buf;
}

void add_sample_f64(std::string& out, const char* name, const char* labels,
                    double value) {
  char buf[224];
  std::snprintf(buf, sizeof buf, "%s%s %.17g\n", name, labels, value);
  out += buf;
}

}  // namespace

std::string to_prometheus(const ServeStatsSnapshot& snap) {
  std::string out;
  out.reserve(4096);

  add_header(out, "fvc_serve_uptime_seconds", "Daemon uptime.", "gauge");
  add_sample_f64(out, "fvc_serve_uptime_seconds", "",
                 static_cast<double>(snap.uptime_ms) / 1000.0);

  add_header(out, "fvc_serve_connections_total",
             "Client connections accepted since start.", "counter");
  add_sample_u64(out, "fvc_serve_connections_total", "", snap.connections_total);

  add_header(out, "fvc_serve_connections_active",
             "Client connections currently open.", "gauge");
  add_sample_u64(out, "fvc_serve_connections_active", "", snap.connections_active);

  add_header(out, "fvc_serve_in_flight_requests",
             "Requests currently being handled.", "gauge");
  add_sample_u64(out, "fvc_serve_in_flight_requests", "", snap.in_flight);

  add_header(out, "fvc_serve_requests_total",
             "Requests answered since start, by request type.", "counter");
  for (std::size_t t = 0; t < kReqTypeCount; ++t) {
    char labels[64];
    std::snprintf(labels, sizeof labels, "{type=\"%s\"}",
                  req_type_name(static_cast<ReqType>(t)));
    add_sample_u64(out, "fvc_serve_requests_total", labels, snap.types[t].count);
  }

  add_header(out, "fvc_serve_errors_total",
             "ok:false responses sent since start.", "counter");
  add_sample_u64(out, "fvc_serve_errors_total", "", snap.errors_total);

  add_header(out, "fvc_serve_bytes_total",
             "Wire bytes moved since start, including framing.", "counter");
  add_sample_u64(out, "fvc_serve_bytes_total", "{direction=\"in\"}", snap.bytes_in);
  add_sample_u64(out, "fvc_serve_bytes_total", "{direction=\"out\"}", snap.bytes_out);

  add_header(out, "fvc_serve_request_latency_microseconds",
             "Interpolated request latency quantiles, by request type.",
             "gauge");
  static constexpr const char* kQuantiles[] = {"0.5", "0.9", "0.99"};
  for (std::size_t t = 0; t < kReqTypeCount; ++t) {
    const ServeStatsSnapshot::PerType& pt = snap.types[t];
    if (pt.count == 0) {
      continue;  // an all-zero quantile for an idle type would read as "instant"
    }
    const double values[] = {pt.p50_us, pt.p90_us, pt.p99_us};
    for (std::size_t q = 0; q < 3; ++q) {
      char labels[96];
      std::snprintf(labels, sizeof labels, "{type=\"%s\",quantile=\"%s\"}",
                    req_type_name(static_cast<ReqType>(t)), kQuantiles[q]);
      add_sample_f64(out, "fvc_serve_request_latency_microseconds", labels,
                     values[q]);
    }
  }

  add_header(out, "fvc_serve_cache_events_total",
             "Row-cache events since start, by kind.", "counter");
  add_sample_u64(out, "fvc_serve_cache_events_total", "{event=\"hit\"}",
                 snap.cache.hits);
  add_sample_u64(out, "fvc_serve_cache_events_total", "{event=\"miss\"}",
                 snap.cache.misses);
  add_sample_u64(out, "fvc_serve_cache_events_total", "{event=\"carry\"}",
                 snap.cache.carried_forward);

  add_header(out, "fvc_serve_cache_tiles", "Grid rows with a valid cached slot.",
             "gauge");
  add_sample_u64(out, "fvc_serve_cache_tiles", "", snap.cache.tiles);

  add_header(out, "fvc_serve_cache_capacity_tiles",
             "Row-cache capacity: the grid's row count.", "gauge");
  add_sample_u64(out, "fvc_serve_cache_capacity_tiles", "", snap.cache.capacity);

  add_header(out, "fvc_serve_cache_bytes",
             "Bytes of the row-cache slot array.", "gauge");
  add_sample_u64(out, "fvc_serve_cache_bytes", "", snap.cache.bytes);

  add_header(out, "fvc_serve_watchdog_stalls_total",
             "Stalls flagged by the watchdog since start.", "counter");
  add_sample_u64(out, "fvc_serve_watchdog_stalls_total", "", snap.stalls);

  add_header(out, "fvc_serve_batched_requests_total",
             "Point requests coalesced into shared kernel rounds.", "counter");
  add_sample_u64(out, "fvc_serve_batched_requests_total", "",
                 snap.batched_requests);

  add_header(out, "fvc_serve_batch_rounds_total",
             "Kernel rounds run by the point batcher.", "counter");
  add_sample_u64(out, "fvc_serve_batch_rounds_total", "", snap.batch_rounds);

  add_header(out, "fvc_serve_batch_points_total",
             "Points evaluated through the batcher.", "counter");
  add_sample_u64(out, "fvc_serve_batch_points_total", "", snap.batch_points);

  add_header(out, "fvc_serve_batch_size_points",
             "Interpolated points-per-round quantiles of the batcher.",
             "gauge");
  if (snap.batch_rounds > 0) {
    const double sizes[] = {snap.batch_size_p50, snap.batch_size_p90,
                            snap.batch_size_p99};
    for (std::size_t q = 0; q < 3; ++q) {
      char labels[64];
      std::snprintf(labels, sizeof labels, "{quantile=\"%s\"}", kQuantiles[q]);
      add_sample_f64(out, "fvc_serve_batch_size_points", labels, sizes[q]);
    }
  }

  return out;
}

void write_prometheus_file_atomic(const std::string& path,
                                  const ServeStatsSnapshot& snap) {
  write_text_file_atomic(path, to_prometheus(snap));
}

}  // namespace fvc::obs
