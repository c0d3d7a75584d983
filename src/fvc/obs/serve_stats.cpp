#include "fvc/obs/serve_stats.hpp"

namespace fvc::obs {

const char* req_type_name(ReqType type) {
  switch (type) {
    case ReqType::kPoint:
      return "point";
    case ReqType::kRegion:
      return "region";
    case ReqType::kWhatIf:
      return "what_if";
    case ReqType::kInfo:
      return "info";
    case ReqType::kStats:
      return "stats";
    case ReqType::kBatch:
      return "batch";
    case ReqType::kOther:
      break;
  }
  return "other";
}

void ServeStats::Recorder::record(ReqType type, std::uint64_t latency_us,
                                  std::uint64_t bytes_in, std::uint64_t bytes_out,
                                  bool error) {
  auto& buckets = latency_buckets_[static_cast<std::size_t>(type)];
  buckets[LogHistogram::bucket_of(latency_us)].fetch_add(1, std::memory_order_relaxed);
  bytes_in_.fetch_add(bytes_in, std::memory_order_relaxed);
  bytes_out_.fetch_add(bytes_out, std::memory_order_relaxed);
  if (error) {
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

ServeStats::ServeStats() : start_ns_(monotonic_ns()) { baseline_.ns = start_ns_; }

ServeStats::Recorder& ServeStats::make_recorder() {
  const std::lock_guard<std::mutex> lock(mutex_);
  shards_.push_back(std::unique_ptr<Recorder>(new Recorder()));
  connections_total_.fetch_add(1, std::memory_order_relaxed);
  connections_active_.fetch_add(1, std::memory_order_relaxed);
  return *shards_.back();
}

void ServeStats::connection_closed() {
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

void ServeStats::request_started() {
  in_flight_.fetch_add(1, std::memory_order_relaxed);
}

void ServeStats::request_finished() {
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
}

void ServeStats::set_stall_source(std::function<std::uint64_t()> source) {
  stall_source_ = std::move(source);
}

void ServeStats::note_cache(const CacheMirror& cache) {
  cache_mirror_[0].store(cache.hits, std::memory_order_relaxed);
  cache_mirror_[1].store(cache.misses, std::memory_order_relaxed);
  cache_mirror_[2].store(cache.carried_forward, std::memory_order_relaxed);
  cache_mirror_[3].store(cache.tiles, std::memory_order_relaxed);
  cache_mirror_[4].store(cache.capacity, std::memory_order_relaxed);
  cache_mirror_[5].store(cache.bytes, std::memory_order_relaxed);
}

void ServeStats::note_batch(std::uint64_t requests, std::uint64_t points) {
  if (requests >= 2) {
    batched_requests_.fetch_add(requests, std::memory_order_relaxed);
  }
  batch_rounds_.fetch_add(1, std::memory_order_relaxed);
  batch_points_.fetch_add(points, std::memory_order_relaxed);
  batch_size_buckets_[LogHistogram::bucket_of(points)].fetch_add(
      1, std::memory_order_relaxed);
}

ServeStatsSnapshot ServeStats::snapshot(bool advance_baseline) {
  ServeStatsSnapshot snap;
  const std::uint64_t now = monotonic_ns();
  snap.uptime_ms = (now - start_ns_) / 1'000'000;
  snap.connections_total = connections_total_.load(std::memory_order_relaxed);
  snap.connections_active = connections_active_.load(std::memory_order_relaxed);
  snap.in_flight = in_flight_.load(std::memory_order_relaxed);
  snap.cache.hits = cache_mirror_[0].load(std::memory_order_relaxed);
  snap.cache.misses = cache_mirror_[1].load(std::memory_order_relaxed);
  snap.cache.carried_forward = cache_mirror_[2].load(std::memory_order_relaxed);
  snap.cache.tiles = cache_mirror_[3].load(std::memory_order_relaxed);
  snap.cache.capacity = cache_mirror_[4].load(std::memory_order_relaxed);
  snap.cache.bytes = cache_mirror_[5].load(std::memory_order_relaxed);
  if (stall_source_) {
    snap.stalls = stall_source_();
  }
  snap.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  snap.batch_rounds = batch_rounds_.load(std::memory_order_relaxed);
  snap.batch_points = batch_points_.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
    snap.batch_size.add_to_bucket(
        b, batch_size_buckets_[b].load(std::memory_order_relaxed));
  }
  snap.batch_size_p50 = snap.batch_size.percentile(0.50);
  snap.batch_size_p90 = snap.batch_size.percentile(0.90);
  snap.batch_size_p99 = snap.batch_size.percentile(0.99);

  const std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Recorder>& shard : shards_) {
    for (std::size_t t = 0; t < kReqTypeCount; ++t) {
      for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
        snap.types[t].latency.add_to_bucket(
            b, shard->latency_buckets_[t][b].load(std::memory_order_relaxed));
      }
    }
    snap.bytes_in += shard->bytes_in_.load(std::memory_order_relaxed);
    snap.bytes_out += shard->bytes_out_.load(std::memory_order_relaxed);
    snap.errors_total += shard->errors_.load(std::memory_order_relaxed);
  }
  for (std::size_t t = 0; t < kReqTypeCount; ++t) {
    ServeStatsSnapshot::PerType& pt = snap.types[t];
    pt.count = pt.latency.total();  // counts derive from the histogram
    pt.p50_us = pt.latency.percentile(0.50);
    pt.p90_us = pt.latency.percentile(0.90);
    pt.p99_us = pt.latency.percentile(0.99);
    snap.requests_total += pt.count;
  }

  snap.delta_ms = (now - baseline_.ns) / 1'000'000;
  for (std::size_t t = 0; t < kReqTypeCount; ++t) {
    snap.delta_counts[t] = snap.types[t].count - baseline_.counts[t];
  }
  snap.delta_requests = snap.requests_total - baseline_.requests;
  snap.delta_errors = snap.errors_total - baseline_.errors;
  snap.delta_bytes_in = snap.bytes_in - baseline_.bytes_in;
  snap.delta_bytes_out = snap.bytes_out - baseline_.bytes_out;
  if (advance_baseline) {
    baseline_.ns = now;
    for (std::size_t t = 0; t < kReqTypeCount; ++t) {
      baseline_.counts[t] = snap.types[t].count;
    }
    baseline_.requests = snap.requests_total;
    baseline_.errors = snap.errors_total;
    baseline_.bytes_in = snap.bytes_in;
    baseline_.bytes_out = snap.bytes_out;
  }
  return snap;
}

}  // namespace fvc::obs
