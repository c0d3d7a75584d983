/// fvc.serve_stats/2 telemetry tests: LogHistogram percentile math,
/// recorder/snapshot/delta accounting, the golden `stats` verb schema
/// through `handle_query`, Prometheus text export, and a concurrent
/// round where four clients mutate while a fifth polls `stats`.

#include "fvc/obs/serve_stats.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "fvc/api/client.hpp"
#include "fvc/api/server.hpp"
#include "fvc/api/session.hpp"
#include "fvc/api/wire.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/cancellation.hpp"
#include "fvc/obs/metrics.hpp"
#include "fvc/obs/prom_export.hpp"

namespace fvc {
namespace {

/// Same hand-placed deployment as the protocol tests: exactly-
/// representable parameters, stable digests across platforms.
std::vector<core::Camera> tiny_deployment() {
  core::Camera a;
  a.position = {0.25, 0.25};
  a.orientation = 0.0;
  a.radius = 0.125;
  a.fov = 2.0;
  core::Camera b;
  b.position = {0.75, 0.75};
  b.orientation = 1.5;
  b.radius = 0.125;
  b.fov = 2.0;
  return {a, b};
}

api::Session tiny_session() {
  api::SessionConfig cfg;
  cfg.cameras = tiny_deployment();
  cfg.theta = geom::kHalfPi;
  cfg.grid_side = 16;
  cfg.threads = 2;
  return api::Session(std::move(cfg));
}

std::string unique_socket_path(const char* tag) {
  return "/tmp/fvc_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

api::Client connect_with_retry(const std::string& path) {
  for (int attempt = 0;; ++attempt) {
    try {
      return api::Client(path);
    } catch (const std::exception&) {
      if (attempt > 200) {
        throw;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

/// A live telemetry-enabled daemon for one test.
class StatsServeFixture {
 public:
  explicit StatsServeFixture(api::Session& session, const char* tag)
      : path_(unique_socket_path(tag)), thread_([this, &session] {
          report_ = api::serve(session, {path_, 16}, stats_, token_);
        }) {}

  ~StatsServeFixture() { drain(); }

  void drain() {
    if (thread_.joinable()) {
      token_.request_stop();
      thread_.join();
    }
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] obs::ServeStats& stats() { return stats_; }
  [[nodiscard]] const api::ServeReport& report() const { return report_; }

 private:
  std::string path_;
  obs::ServeStats stats_;
  obs::CancellationToken token_;
  api::ServeReport report_;
  std::thread thread_;
};

std::uint64_t get_u64(const api::WireObject& obj, const std::string& key) {
  return static_cast<std::uint64_t>(api::get_number(obj, key));
}

// --- LogHistogram percentile math ------------------------------------------

TEST(LogHistogramPercentile, EmptyHistogramReportsZero) {
  const obs::LogHistogram h;
  EXPECT_EQ(h.percentile(0.0), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(LogHistogramPercentile, SingleSampleInterpolatesItsBucket) {
  // One sample in [2, 4): p50 lands mid-bucket, p0 at the lower edge,
  // p100 at the (exclusive) upper edge.  The documented contract.
  obs::LogHistogram h;
  h.add(3);
  EXPECT_EQ(h.percentile(0.5), 3.0);
  EXPECT_EQ(h.percentile(0.0), 2.0);
  EXPECT_EQ(h.percentile(1.0), 4.0);
}

TEST(LogHistogramPercentile, ExactBucketEdgesStayInTheirOwnBucket) {
  // 2 is the first value of bucket 1 ([2,4)), 4 the first of bucket 2
  // ([4,8)): an edge sample interpolates inside its own bucket, never a
  // neighbour's.
  obs::LogHistogram h;
  h.add(2);
  h.add(4);
  EXPECT_EQ(obs::LogHistogram::bucket_of(2), 1u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(4), 2u);
  EXPECT_EQ(obs::LogHistogram::bucket_lo(1), 2u);
  EXPECT_EQ(obs::LogHistogram::bucket_hi(1), 4u);
  EXPECT_EQ(obs::LogHistogram::bucket_lo(2), 4u);
  // target rank 1.0 exhausts bucket 1 exactly: frac = 1 -> its hi edge.
  EXPECT_EQ(h.percentile(0.5), 4.0);
  // target rank 1.5 is halfway through bucket 2: 4 + 0.5 * (8 - 4).
  EXPECT_EQ(h.percentile(0.75), 6.0);
}

TEST(LogHistogramPercentile, ClampsOutOfRangeProbabilities) {
  obs::LogHistogram h;
  h.add(3);
  EXPECT_EQ(h.percentile(-0.5), h.percentile(0.0));
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(LogHistogramPercentile, OpenEndedLastBucketStaysFinite) {
  // A sample far beyond 2^15 lands in the open-ended last bucket, which
  // is treated as one doubling wide: p100 = 2 * bucket_lo(15) = 65536.
  obs::LogHistogram h;
  h.add(1'000'000);
  EXPECT_EQ(obs::LogHistogram::bucket_of(1'000'000),
            obs::LogHistogram::kBuckets - 1);
  EXPECT_EQ(h.percentile(1.0), 65536.0);
}

TEST(LogHistogramPercentile, AddToBucketIsTheMergePrimitive) {
  obs::LogHistogram direct;
  for (int i = 0; i < 5; ++i) {
    direct.add(3);
  }
  obs::LogHistogram bulk;
  bulk.add_to_bucket(obs::LogHistogram::bucket_of(3), 5);
  EXPECT_EQ(bulk, direct);
  EXPECT_EQ(bulk.percentile(0.5), direct.percentile(0.5));
}

// --- ServeStats registry accounting ----------------------------------------

TEST(ServeStats, CountsDeriveFromLatencyHistograms) {
  obs::ServeStats stats;
  obs::ServeStats::Recorder& rec = stats.make_recorder();
  rec.record(obs::ReqType::kPoint, 3, 10, 20, false);
  rec.record(obs::ReqType::kPoint, 5, 10, 20, false);
  rec.record(obs::ReqType::kRegion, 100, 30, 400, false);
  rec.record(obs::ReqType::kOther, 2, 8, 16, true);

  obs::ServeStatsSnapshot snap = stats.snapshot(/*advance_baseline=*/false);
  const auto idx = [](obs::ReqType t) { return static_cast<std::size_t>(t); };
  EXPECT_EQ(snap.types[idx(obs::ReqType::kPoint)].count, 2u);
  EXPECT_EQ(snap.types[idx(obs::ReqType::kRegion)].count, 1u);
  EXPECT_EQ(snap.types[idx(obs::ReqType::kOther)].count, 1u);
  EXPECT_EQ(snap.types[idx(obs::ReqType::kWhatIf)].count, 0u);

  // The consistency contract: the total IS the sum of per-type counts,
  // and each count IS its histogram's total.
  std::uint64_t sum = 0;
  for (const auto& pt : snap.types) {
    EXPECT_EQ(pt.count, pt.latency.total());
    sum += pt.count;
  }
  EXPECT_EQ(snap.requests_total, sum);
  EXPECT_EQ(snap.requests_total, 4u);
  EXPECT_EQ(snap.errors_total, 1u);
  EXPECT_EQ(snap.bytes_in, 10u + 10u + 30u + 8u);
  EXPECT_EQ(snap.bytes_out, 20u + 20u + 400u + 16u);
  EXPECT_EQ(snap.connections_total, 1u);
  EXPECT_EQ(snap.connections_active, 1u);

  // Percentiles come from the merged histogram (both point samples in
  // [2,4) and [4,8)).
  EXPECT_GT(snap.types[idx(obs::ReqType::kPoint)].p50_us, 0.0);
  EXPECT_LE(snap.types[idx(obs::ReqType::kPoint)].p50_us,
            snap.types[idx(obs::ReqType::kPoint)].p99_us);
}

TEST(ServeStats, BaselineAdvancesOnlyWhenAsked) {
  obs::ServeStats stats;
  obs::ServeStats::Recorder& rec = stats.make_recorder();
  rec.record(obs::ReqType::kInfo, 3, 10, 20, false);

  // First snapshot: deltas equal totals.
  obs::ServeStatsSnapshot first = stats.snapshot(/*advance_baseline=*/true);
  EXPECT_EQ(first.delta_requests, first.requests_total);
  EXPECT_EQ(first.delta_counts[static_cast<std::size_t>(obs::ReqType::kInfo)],
            1u);
  EXPECT_EQ(first.delta_bytes_in, 10u);

  // Non-advancing snapshots (the file exporters) never move the baseline.
  rec.record(obs::ReqType::kPoint, 3, 5, 6, false);
  obs::ServeStatsSnapshot peek = stats.snapshot(/*advance_baseline=*/false);
  EXPECT_EQ(peek.delta_requests, 1u);  // the point, vs. first's baseline
  obs::ServeStatsSnapshot second = stats.snapshot(/*advance_baseline=*/true);
  EXPECT_EQ(second.delta_requests, 1u);
  EXPECT_EQ(second.delta_counts[static_cast<std::size_t>(obs::ReqType::kPoint)],
            1u);
  EXPECT_EQ(second.requests_total, 2u);

  // Idle interval after an advance: zero deltas, monotone totals.
  obs::ServeStatsSnapshot third = stats.snapshot(/*advance_baseline=*/true);
  EXPECT_EQ(third.delta_requests, 0u);
  EXPECT_EQ(third.delta_bytes_in, 0u);
  EXPECT_EQ(third.requests_total, 2u);
}

TEST(ServeStats, GaugesMirrorAndStallSource) {
  obs::ServeStats stats;
  (void)stats.make_recorder();  // one open connection
  stats.request_started();
  stats.request_started();
  stats.request_finished();
  stats.set_stall_source([] { return std::uint64_t{7}; });
  obs::CacheMirror mirror;
  mirror.hits = 11;
  mirror.misses = 4;
  mirror.carried_forward = 1;
  mirror.tiles = 3;
  mirror.capacity = 8;
  mirror.bytes = 4096;
  stats.note_cache(mirror);

  obs::ServeStatsSnapshot snap = stats.snapshot(/*advance_baseline=*/false);
  EXPECT_EQ(snap.in_flight, 1u);
  EXPECT_EQ(snap.stalls, 7u);
  EXPECT_EQ(snap.cache.hits, 11u);
  EXPECT_EQ(snap.cache.misses, 4u);
  EXPECT_EQ(snap.cache.carried_forward, 1u);
  EXPECT_EQ(snap.cache.tiles, 3u);
  EXPECT_EQ(snap.cache.capacity, 8u);
  EXPECT_EQ(snap.cache.bytes, 4096u);

  stats.connection_closed();
  snap = stats.snapshot(/*advance_baseline=*/false);
  EXPECT_EQ(snap.connections_active, 0u);
}

TEST(ServeStats, BatchRoundAccounting) {
  obs::ServeStats stats;
  stats.note_batch(1, 1);    // straight-through round: not a coalesced batch
  stats.note_batch(3, 7);    // a real group commit
  stats.note_batch(2, 400);  // client-side `points` arrays count as well
  obs::ServeStatsSnapshot snap = stats.snapshot(/*advance_baseline=*/false);
  EXPECT_EQ(snap.batch_rounds, 3u);
  EXPECT_EQ(snap.batch_points, 1u + 7u + 400u);
  // Only rounds with >= 2 waiters advance batched_requests.
  EXPECT_EQ(snap.batched_requests, 3u + 2u);
  EXPECT_EQ(snap.batch_size.total(), 3u);
  EXPECT_GT(snap.batch_size_p99, snap.batch_size_p50);
}

TEST(ServeStats, ShardsOutliveConnections) {
  obs::ServeStats stats;
  {
    obs::ServeStats::Recorder& rec = stats.make_recorder();
    rec.record(obs::ReqType::kPoint, 3, 10, 20, false);
    stats.connection_closed();
  }
  // A second connection comes and goes; the first shard's traffic stays.
  obs::ServeStats::Recorder& rec2 = stats.make_recorder();
  rec2.record(obs::ReqType::kRegion, 50, 30, 40, false);
  stats.connection_closed();

  obs::ServeStatsSnapshot snap = stats.snapshot(/*advance_baseline=*/false);
  EXPECT_EQ(snap.requests_total, 2u);
  EXPECT_EQ(snap.connections_total, 2u);
  EXPECT_EQ(snap.connections_active, 0u);
}

// --- The stats verb through handle_query -----------------------------------

TEST(ServeStatsVerb, GoldenSchemaFields) {
  api::Session session = tiny_session();
  obs::ServeStats stats;
  const api::WireObject snap = api::parse_flat_object(
      api::handle_query(session, "{\"op\":\"stats\"}", &stats));
  EXPECT_TRUE(api::get_bool(snap, "ok"));
  EXPECT_EQ(api::get_string(snap, "schema"), api::kServeStatsSchema);
  EXPECT_EQ(api::get_string(snap, "schema"), "fvc.serve_stats/2");
  EXPECT_EQ(api::get_string(snap, "digest"), session.digest_hex());

  // Every fvc.serve_stats/2 field is present — a poller may index
  // unconditionally.
  for (const char* field :
       {"uptime_ms", "connections_total", "connections_active", "in_flight",
        "requests_total", "errors_total", "bytes_in", "bytes_out",
        "cache_hits", "cache_misses",
        "cache_carried_forward", "cache_tiles", "cache_capacity",
        "cache_bytes", "stalls", "batched_requests", "batch_rounds",
        "batch_points", "batch_size_p50", "batch_size_p90", "batch_size_p99",
        "delta_ms", "delta_requests", "delta_errors",
        "delta_bytes_in", "delta_bytes_out"}) {
    EXPECT_TRUE(snap.count(field) == 1) << field;
  }
  for (const char* type :
       {"point", "region", "what_if", "info", "stats", "batch", "other"}) {
    const std::string name(type);
    for (const char* suffix :
         {"_count", "_p50_us", "_p90_us", "_p99_us", "_delta"}) {
      EXPECT_TRUE(snap.count(name + suffix) == 1) << name + suffix;
    }
  }

  // The handler only *reads* the registry — a snapshot never counts the
  // request that asked for it (recording happens in the serve loop).
  EXPECT_EQ(get_u64(snap, "requests_total"), 0u);
  EXPECT_EQ(get_u64(snap, "stats_count"), 0u);

  // The cache mirror is refreshed from the live session before the
  // snapshot, so capacity is the session's row count.
  EXPECT_EQ(get_u64(snap, "cache_capacity"), session.grid_side());
  EXPECT_GT(get_u64(snap, "cache_bytes"), 0u);
  // The deleted LRU's always-zero eviction count is gone from the schema.
  EXPECT_EQ(snap.count("cache_evictions"), 0u);
}

TEST(ServeStatsVerb, StatslessHandleQueryAnswersOkFalse) {
  api::Session session = tiny_session();
  // Embedded (statsless) use: the verb exists but reports unavailable,
  // byte-for-byte deterministic.
  EXPECT_EQ(api::handle_query(session, "{\"op\":\"stats\"}"),
            "{\"ok\":false,\"schema\":\"fvc.query/1\","
            "\"error\":\"stats not available\"}");
}

TEST(ServeStatsVerb, StatsVerbAdvancesTheDeltaBaseline) {
  api::Session session = tiny_session();
  obs::ServeStats stats;
  obs::ServeStats::Recorder& rec = stats.make_recorder();
  rec.record(obs::ReqType::kPoint, 3, 10, 20, false);

  const api::WireObject first = api::parse_flat_object(
      api::handle_query(session, "{\"op\":\"stats\"}", &stats));
  EXPECT_EQ(get_u64(first, "delta_requests"), 1u);
  EXPECT_EQ(get_u64(first, "point_delta"), 1u);

  const api::WireObject second = api::parse_flat_object(
      api::handle_query(session, "{\"op\":\"stats\"}", &stats));
  EXPECT_EQ(get_u64(second, "delta_requests"), 0u);
  EXPECT_EQ(get_u64(second, "point_delta"), 0u);
  EXPECT_EQ(get_u64(second, "requests_total"), 1u);
}

// --- Prometheus export ------------------------------------------------------

TEST(PromExport, RendersTheDocumentedNameMapping) {
  obs::ServeStats stats;
  obs::ServeStats::Recorder& rec = stats.make_recorder();
  rec.record(obs::ReqType::kPoint, 3, 10, 20, false);
  rec.record(obs::ReqType::kPoint, 5, 10, 20, false);
  obs::CacheMirror mirror;
  mirror.hits = 6;
  mirror.tiles = 2;
  stats.note_cache(mirror);

  const std::string text =
      obs::to_prometheus(stats.snapshot(/*advance_baseline=*/false));

  // HELP/TYPE headers precede their samples (text exposition 0.0.4).
  EXPECT_NE(text.find("# HELP fvc_serve_requests_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fvc_serve_requests_total counter"),
            std::string::npos);
  EXPECT_LT(text.find("# TYPE fvc_serve_requests_total counter"),
            text.find("fvc_serve_requests_total{type=\"point\"}"));

  EXPECT_NE(text.find("fvc_serve_requests_total{type=\"point\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("fvc_serve_requests_total{type=\"region\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("fvc_serve_connections_total 1"), std::string::npos);
  EXPECT_NE(text.find("fvc_serve_bytes_total{direction=\"in\"} 20"),
            std::string::npos);
  EXPECT_NE(text.find("fvc_serve_cache_events_total{event=\"hit\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("fvc_serve_cache_tiles 2"), std::string::npos);
  EXPECT_EQ(text.find("event=\"evict\""), std::string::npos);
  EXPECT_NE(text.find("fvc_serve_watchdog_stalls_total 0"), std::string::npos);

  // Quantiles only for types with traffic: point yes, region no.
  EXPECT_NE(
      text.find(
          "fvc_serve_request_latency_microseconds{type=\"point\",quantile="),
      std::string::npos);
  EXPECT_EQ(
      text.find(
          "fvc_serve_request_latency_microseconds{type=\"region\",quantile="),
      std::string::npos);

  // Every line is a comment or a `name{labels} value` sample.
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(text.find("\n\n"), std::string::npos);
}

TEST(PromExport, WritesTheFileAtomically) {
  obs::ServeStats stats;
  const std::string path =
      "/tmp/fvc_test_prom_" + std::to_string(::getpid()) + ".txt";
  obs::write_prometheus_file_atomic(path,
                                    stats.snapshot(/*advance_baseline=*/false));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  ASSERT_GT(std::fread(buf, 1, sizeof buf - 1, f), 0u);
  std::fclose(f);
  EXPECT_EQ(std::string(buf).rfind("# HELP fvc_serve_", 0), 0u);
  // The tmp staging file must not linger.
  EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "rb"), nullptr);
  std::remove(path.c_str());
}

// --- Live daemon: concurrent mutators + stats poller -----------------------

TEST(ServeStatsLive, SnapshotStaysConsistentUnderConcurrentMutation) {
  api::Session served = tiny_session();
  StatsServeFixture daemon(served, "stats_live");

  constexpr std::size_t kMutators = 4;
  constexpr std::size_t kRounds = 25;
  constexpr std::size_t kPolls = 20;
  std::atomic<std::size_t> inconsistencies{0};
  std::atomic<bool> mutators_done{false};

  std::vector<std::thread> clients;
  clients.reserve(kMutators + 1);
  for (std::size_t c = 0; c < kMutators; ++c) {
    clients.emplace_back([&, c] {
      api::Client client = connect_with_retry(daemon.path());
      for (std::size_t r = 0; r < kRounds; ++r) {
        // Real mutating traffic (no-op moves keep the digest stable)
        // interleaved with point and region queries.
        if (r % 5 == 0) {
          (void)client.request(
              "{\"op\":\"what_if\",\"action\":\"move\",\"index\":" +
              std::to_string(c % 2) + "}");
        } else if (r % 2 == 0) {
          (void)client.request("{\"op\":\"point\",\"x\":0.25,\"y\":0.375}");
        } else {
          (void)client.request("{\"op\":\"region\",\"y_lo\":0,\"y_hi\":1}");
        }
      }
    });
  }
  clients.emplace_back([&] {
    api::Client client = connect_with_retry(daemon.path());
    std::uint64_t prev_requests = 0;
    std::uint64_t prev_bytes_out = 0;
    // Poll at least kPolls times and keep polling until every mutator
    // has drained (the loop terminates because the mutators always do);
    // only then is the exact-count check below meaningful.
    for (std::size_t poll = 0; poll < kPolls || !mutators_done.load();
         ++poll) {
      const api::WireObject snap =
          api::parse_flat_object(client.request("{\"op\":\"stats\"}"));
      if (!api::get_bool(snap, "ok")) {
        inconsistencies.fetch_add(1);
        break;
      }
      // Internal consistency: the total equals the sum of per-type
      // counts in the SAME snapshot — no torn reads.
      std::uint64_t sum = 0;
      for (const char* type :
           {"point", "region", "what_if", "info", "stats", "batch", "other"}) {
        sum += get_u64(snap, std::string(type) + "_count");
      }
      const std::uint64_t total = get_u64(snap, "requests_total");
      if (total != sum) {
        inconsistencies.fetch_add(1);
      }
      // Monotonicity across polls.
      const std::uint64_t bytes_out = get_u64(snap, "bytes_out");
      if (total < prev_requests || bytes_out < prev_bytes_out) {
        inconsistencies.fetch_add(1);
      }
      prev_requests = total;
      prev_bytes_out = bytes_out;
      if (poll >= kPolls) {
        // Mutators still running under a loaded machine: stop spinning
        // the session mutex and give them room to finish.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    // One more poll after the mutators drained: everything they sent
    // (kMutators * kRounds) plus this client's own earlier stats polls
    // must be visible — record-before-response-write makes this exact.
    const api::WireObject last =
        api::parse_flat_object(client.request("{\"op\":\"stats\"}"));
    std::uint64_t mutator_sum = 0;
    for (const char* type : {"point", "region", "what_if"}) {
      mutator_sum += get_u64(last, std::string(type) + "_count");
    }
    if (mutator_sum != kMutators * kRounds) {
      inconsistencies.fetch_add(1);
    }
  });

  for (std::size_t c = 0; c < kMutators; ++c) {
    clients[c].join();
  }
  mutators_done.store(true);
  clients[kMutators].join();
  EXPECT_EQ(inconsistencies.load(), 0u);

  daemon.drain();
  EXPECT_EQ(daemon.report().connections, kMutators + 1);

  // The registry agrees with the daemon's own accounting.
  obs::ServeStatsSnapshot final_snap =
      daemon.stats().snapshot(/*advance_baseline=*/false);
  EXPECT_EQ(final_snap.requests_total, daemon.report().requests);
  EXPECT_EQ(final_snap.errors_total, daemon.report().errors);
  EXPECT_EQ(final_snap.connections_total, kMutators + 1);
  EXPECT_EQ(final_snap.connections_active, 0u);
  EXPECT_EQ(final_snap.in_flight, 0u);
}

TEST(ServeStatsLive, QueriesStayByteIdenticalWithRecordingEnabled) {
  // The telemetry plane must not perturb answers: a stats-enabled daemon
  // returns byte-identical responses to the statsless in-process path.
  api::Session reference = tiny_session();
  api::Session served = tiny_session();
  StatsServeFixture daemon(served, "stats_identity");
  api::Client client = connect_with_retry(daemon.path());
  for (const char* request :
       {"{\"op\":\"info\"}", "{\"op\":\"point\",\"x\":0.0625,\"y\":0.9375}",
        "{\"op\":\"region\",\"y_lo\":0,\"y_hi\":1}",
        "{\"op\":\"region\",\"y_lo\":0,\"y_hi\":1}"}) {
    EXPECT_EQ(client.request(request), api::handle_query(reference, request))
        << request;
  }
}

}  // namespace
}  // namespace fvc
