/// \file serve_stats.hpp
/// \brief Live telemetry registry for the query daemon.
///
/// `ServeStats` is the rolling-stats plane behind the wire-level `stats`
/// verb, the Prometheus file exporter, and `fvc top`.  It follows the
/// same sharding discipline as the engine's metrics (metrics.hpp): the
/// hot path touches only *per-connection* state — one `Recorder` shard
/// per client thread, every field a relaxed `std::atomic` — and a
/// snapshot merges the shards element-wise on demand.  There is no lock
/// on the request path; the registry mutex guards only shard creation,
/// the delta baseline, and nothing a handler thread ever takes.
///
/// Consistency contract of a snapshot:
///   - per-request-type counts are *derived from* the latency histogram
///     totals (one source of truth), so `requests_total` always equals
///     the sum of the per-type counts — no torn "total without type";
///   - counters are monotone across snapshots (shards outlive their
///     connections; closing a client never forgets its traffic);
///   - relaxed loads may lag a concurrent writer by a few events, but
///     every value read is a value that was actually written — there
///     are no mixed-word reads (all fields are single 64-bit atomics).
///
/// The cache counters are a *mirror*: `api::Session` (a layer above
/// obs) is not thread-safe, so the serve loop republishes the row-cache
/// stats into plain atomics here after each request, while it still
/// holds the session mutex.  Exporters then read the mirror without
/// touching the session.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>

#include "fvc/obs/metrics.hpp"

namespace fvc::obs {

/// Request classes tracked by the daemon.  `kOther` absorbs anything the
/// classifier cannot name (unknown ops, unparseable bodies) so every
/// request lands in exactly one class.
enum class ReqType : std::uint8_t {
  kPoint = 0,
  kRegion,
  kWhatIf,
  kInfo,
  kStats,
  kBatch,  ///< the `points` wire verb (client-side batched points)
  kOther,
};
inline constexpr std::size_t kReqTypeCount = 7;

/// Wire/export name of a request type ("point", "region", ...).
/// NUL-terminated literal, safe for printf-family formatting.
[[nodiscard]] const char* req_type_name(ReqType type);

/// Row-cache counters republished into the registry's atomic mirror.
struct CacheMirror {
  std::uint64_t hits = 0;             ///< rows answered from their slot
  std::uint64_t misses = 0;           ///< rows evaluated by the engine
  std::uint64_t carried_forward = 0;  ///< valid rows kept across edits
  std::uint64_t tiles = 0;     ///< rows whose slot is valid
  std::uint64_t capacity = 0;  ///< grid rows (one slot each)
  std::uint64_t bytes = 0;     ///< bytes of the slot array
};

/// One merged, internally-consistent view of the registry.
struct ServeStatsSnapshot {
  std::uint64_t uptime_ms = 0;

  std::uint64_t connections_total = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t in_flight = 0;

  /// Per-type merged latency histograms (microseconds) and the
  /// percentiles derived from them.  `count` == `latency.total()`.
  struct PerType {
    std::uint64_t count = 0;
    double p50_us = 0.0;
    double p90_us = 0.0;
    double p99_us = 0.0;
    LogHistogram latency;
  };
  std::array<PerType, kReqTypeCount> types{};

  std::uint64_t requests_total = 0;  ///< sum of per-type counts
  std::uint64_t errors_total = 0;    ///< ok:false responses sent
  std::uint64_t bytes_in = 0;        ///< request bytes incl. framing
  std::uint64_t bytes_out = 0;       ///< response bytes incl. framing

  CacheMirror cache;
  std::uint64_t stalls = 0;  ///< watchdog stalls flagged

  /// Group-commit batching counters (server-side coalescing of point
  /// work into single kernel rounds; see api/batch.hpp).
  std::uint64_t batched_requests = 0;  ///< requests coalesced into shared rounds
  std::uint64_t batch_rounds = 0;      ///< kernel rounds run by the batcher
  std::uint64_t batch_points = 0;      ///< points evaluated through the batcher
  double batch_size_p50 = 0.0;         ///< points per round percentiles
  double batch_size_p90 = 0.0;
  double batch_size_p99 = 0.0;
  LogHistogram batch_size;  ///< points per round

  /// Deltas since the previous baseline-advancing snapshot (the `stats`
  /// verb advances the baseline; file exporters do not).  On the first
  /// snapshot the deltas equal the totals and `delta_ms` the uptime.
  std::uint64_t delta_ms = 0;
  std::array<std::uint64_t, kReqTypeCount> delta_counts{};
  std::uint64_t delta_requests = 0;
  std::uint64_t delta_errors = 0;
  std::uint64_t delta_bytes_in = 0;
  std::uint64_t delta_bytes_out = 0;
};

/// Telemetry registry for one daemon run.  Thread-safe as documented
/// per method; designed so handler threads only ever touch their own
/// `Recorder` and a handful of registry-level atomics.
class ServeStats {
 public:
  /// Per-connection shard.  All fields relaxed atomics: the owning
  /// handler thread is the only writer, snapshots the only other
  /// reader.  Obtained from `make_recorder()`; never freed before the
  /// registry (shards outlive their connections so counters stay
  /// monotone).
  class Recorder {
   public:
    /// Record one completed request: its class, wire latency in
    /// microseconds, bytes moved each way (including framing), and
    /// whether the response was ok:false.
    void record(ReqType type, std::uint64_t latency_us, std::uint64_t bytes_in,
                std::uint64_t bytes_out, bool error);

   private:
    friend class ServeStats;
    Recorder() = default;

    std::array<std::array<std::atomic<std::uint64_t>, LogHistogram::kBuckets>,
               kReqTypeCount>
        latency_buckets_{};
    std::atomic<std::uint64_t> bytes_in_{0};
    std::atomic<std::uint64_t> bytes_out_{0};
    std::atomic<std::uint64_t> errors_{0};
  };

  ServeStats();

  /// Create the shard for a new connection and count it opened.
  /// Takes the registry mutex (connection setup, not the hot path).
  /// The reference stays valid for the registry's lifetime.
  [[nodiscard]] Recorder& make_recorder();

  /// Count a connection closed (shard stays; counters stay monotone).
  void connection_closed();

  /// In-flight request gauge, bumped around the handler call.
  void request_started();
  void request_finished();

  /// Install the watchdog-stall reader (e.g. `Watchdog::stalls_flagged`).
  /// Call before serving; the snapshot invokes it when set.
  void set_stall_source(std::function<std::uint64_t()> source);

  /// Republish row-cache counters into the atomic mirror.  Called by
  /// the serve loop while it holds the session mutex; exporters read
  /// the mirror lock-free.
  void note_cache(const CacheMirror& cache);

  /// Record one batcher kernel round: `requests` waiters answered with
  /// `points` points in a single session pass.  `batched_requests`
  /// advances only for rounds that actually coalesced (requests >= 2) —
  /// the straight-through single-waiter path is not a batch.  Called by
  /// whichever handler thread led the round (registry-level atomics, no
  /// shard).
  void note_batch(std::uint64_t requests, std::uint64_t points);

  /// Merge all shards into one consistent snapshot.  When
  /// `advance_baseline` is set the registry's delta baseline moves to
  /// this snapshot (the `stats` verb advances; file exporters pass
  /// false so they never perturb a poller's deltas).
  [[nodiscard]] ServeStatsSnapshot snapshot(bool advance_baseline);

  /// Registry birth time (monotonic_ns), the uptime origin.
  [[nodiscard]] std::uint64_t start_ns() const { return start_ns_; }

 private:
  const std::uint64_t start_ns_;

  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> in_flight_{0};

  std::array<std::atomic<std::uint64_t>, 6> cache_mirror_{};

  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::uint64_t> batch_rounds_{0};
  std::atomic<std::uint64_t> batch_points_{0};
  std::array<std::atomic<std::uint64_t>, LogHistogram::kBuckets>
      batch_size_buckets_{};

  std::function<std::uint64_t()> stall_source_;

  /// Guards shard creation and the delta baseline only.
  std::mutex mutex_;
  std::list<std::unique_ptr<Recorder>> shards_;

  /// Delta baseline: totals at the last baseline-advancing snapshot.
  struct Baseline {
    std::uint64_t ns = 0;
    std::array<std::uint64_t, kReqTypeCount> counts{};
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
  };
  Baseline baseline_;
};

}  // namespace fvc::obs
