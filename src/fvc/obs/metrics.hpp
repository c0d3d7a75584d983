/// \file metrics.hpp
/// \brief Observability primitives: log-bucketed histograms and wall clocks.
///
/// `fvc::obs` is the feedback loop behind the "as fast as the hardware
/// allows" goal: counters, timers and hierarchical spans that the engine
/// layers (core::GridEvalEngine, sim::parallel_for, the Monte-Carlo
/// estimators) fill in when a caller asks for metrics, and that the CLI
/// exports as one schema-versioned JSON document per run (`--metrics`).
///
/// Cost model: every recording site is gated on a metrics pointer, so a
/// run without metrics pays one predictable branch per *batch* of work —
/// never per candidate — and produces bit-identical results.  The
/// primitives here have no internal synchronization; the engine idiom is
/// per-worker (or per-row / per-trial slot) instances merged
/// deterministically by the caller, exactly like the result slots of
/// sim::parallel_for.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace fvc::obs {

/// Monotonic wall-clock nanoseconds (steady clock).  The single time
/// source of the subsystem, wrapped so instrumented code never includes
/// <chrono> in a hot header.
[[nodiscard]] std::uint64_t monotonic_ns();

/// Histogram with log2 buckets: bucket b counts samples in [2^(b-1), 2^b)
/// (bucket 0 counts zeros and ones, the last bucket is open-ended).
/// Sixteen buckets cover counts up to 32768, far beyond any per-point
/// candidate list; merge is element-wise, so per-worker histograms reduce
/// deterministically.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 16;

  void add(std::uint64_t value) { ++buckets_[bucket_of(value)]; }
  /// Bulk-add `count` samples directly into bucket `b` — the merge
  /// primitive for external (e.g. atomic-sharded) bucket arrays.
  void add_to_bucket(std::size_t b, std::uint64_t count) { buckets_.at(b) += count; }
  void merge(const LogHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      buckets_[b] += other.buckets_[b];
    }
  }

  [[nodiscard]] std::uint64_t bucket(std::size_t b) const { return buckets_.at(b); }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const std::uint64_t c : buckets_) {
      t += c;
    }
    return t;
  }
  [[nodiscard]] bool empty() const { return total() == 0; }

  /// Lower edge of bucket b (0, 2, 4, 8, ..., 2^(kBuckets-1)).
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t b) {
    return b == 0 ? 0 : std::uint64_t{1} << b;
  }

  /// Exclusive upper edge of bucket b (2, 4, 8, ...).  The last bucket is
  /// open-ended; for interpolation purposes it is treated as one doubling
  /// wide (hi = 2 * lo), which keeps percentile() finite and monotone.
  [[nodiscard]] static std::uint64_t bucket_hi(std::size_t b) {
    return std::uint64_t{1} << (b + 1);
  }

  /// Interpolated percentile estimate for p in [0, 1] (clamped).  With N
  /// samples the target rank is p * N; the estimate walks the cumulative
  /// counts to the bucket containing that rank and interpolates linearly
  /// across the bucket's [lo, hi) span — so a single sample in [2, 4)
  /// reports p50 = 3.0, and samples landing exactly on bucket edges
  /// resolve to positions inside their own bucket, never a neighbour's.
  /// An empty histogram reports 0 for every p.
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) {
    std::size_t b = 0;
    while (value > 1 && b + 1 < kBuckets) {
      value >>= 1;
      ++b;
    }
    return b;
  }

  [[nodiscard]] bool operator==(const LogHistogram&) const = default;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
};

/// Min/mean/max accumulator for durations (or any nonnegative samples).
/// Merge-able, so per-trial times reduce across workers.
class DurationStats {
 public:
  void add(std::uint64_t ns) {
    if (count_ == 0 || ns < min_) {
      min_ = ns;
    }
    if (count_ == 0 || ns > max_) {
      max_ = ns;
    }
    sum_ += ns;
    ++count_;
  }
  void merge(const DurationStats& other) {
    if (other.count_ == 0) {
      return;
    }
    if (count_ == 0 || other.min_ < min_) {
      min_ = other.min_;
    }
    if (count_ == 0 || other.max_ > max_) {
      max_ = other.max_;
    }
    sum_ += other.sum_;
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

 private:
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t count_ = 0;
};

}  // namespace fvc::obs
