/// \file bench.hpp
/// \brief Shared pieces of the fvc benchmark harness: sample statistics,
/// the run report (metrics, correctness accounting, record), benchmark-side
/// trace spans and their self-time analysis, and host description.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fvc/obs/metrics.hpp"
#include "fvc/obs/trace.hpp"

namespace fvcbench {

/// Monotonic nanoseconds — the same clock the program's trace stamps with,
/// so benchmark wall times and trace timestamps are directly comparable.
inline std::uint64_t now_ns() { return fvc::obs::monotonic_ns(); }

/// Order statistics over one sample.  Quantiles interpolate linearly
/// between order statistics (the "linear" rule of numpy / Python's
/// statistics.quantiles(method="inclusive")).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> values_;
};

/// Everything one run reports: metrics, the correctness ledger and the
/// free-form record written next to the contract line.
class Report {
 public:
  /// End-to-end (untraced run) and per-layer (traced run) metrics.
  void e2e(const std::string& name, const std::string& unit, double value,
           std::size_t samples);
  void layer(const std::string& name, const std::string& unit, double value,
             std::size_t samples);
  /// A human-readable figure printed in the summary and kept in the record
  /// (the workload-specific names, daemon tails, per-op latencies).
  void info(const std::string& name, const std::string& unit, double value,
            std::size_t samples);

  /// Count timed work units (a trial, a grid scan, a request).  Units that
  /// failed (an ok:false answer, a lost connection) count as failed ops.
  void ops(std::uint64_t attempted, std::uint64_t failed, const std::string& what);
  /// One correctness check: counts as an attempted op, failed when !ok.
  void check(bool ok, const std::string& what);

  /// Workload parameter / record annotation (string-valued).
  void param(const std::string& key, const std::string& value);
  void param(const std::string& key, double value);
  /// Annotation whose value is already a JSON document (the host block).
  void param_json(const std::string& key, const std::string& json) {
    params_.emplace_back(key, json);
  }
  /// Per-span self times of the traced run (milliseconds).
  void self_times(const std::map<std::string, double>& ms) { self_ms_ = ms; }

  [[nodiscard]] bool correct() const { return failed_ == 0; }

  /// Print the summary table (stdout), write the JSON record to
  /// `record_path` (when non-empty), and print the contract line last.
  void finish(bool trace, const std::string& record_path) const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;
  };
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<Metric> info_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::string> failures_;
  std::map<std::string, double> self_ms_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Category of every benchmark-side span; names carry a "bench." prefix so
/// a timeline separates them from the program's own slices.
inline constexpr fvc::obs::TraceCategory kBenchCat = fvc::obs::TraceCategory::kCli;
/// RAII span around one call into a layer (inert unless a trace session is
/// installed).  `name` must be a string literal.
using Span = fvc::obs::TraceScope;

/// Self-time analysis of one drained timeline.
struct SelfTimes {
  std::map<std::string, double> self_ms;  ///< per span name, all threads
  double root_self_ms = 0.0;              ///< root time in no child span
  std::uint64_t evicted = 0;
  std::size_t unmatched = 0;  ///< end events without a matching begin
  /// One sim::parallel_for_blocked call: its wall time and the busy time
  /// (Σ pool.block) of each worker it started.
  struct PoolSection {
    double wall_ms = 0.0;
    std::vector<double> busy_ms;
  };
  std::vector<PoolSection> pool_sections;
};

/// Walk begin/end pairs per thread; `root` names the span that encloses the
/// traced phase on the coordinating thread ("" when there is none).
[[nodiscard]] SelfTimes analyse_trace(const fvc::obs::TraceSession::Drained& drained,
                                      const char* root);

/// Host description for the record (CPU model, cores, compiler, flags...).
struct Host {
  std::string cpu_model;
  unsigned nproc = 1;
  std::string compiler;
  std::string flags;
  std::string build_type;
  std::string git_sha;
  double atan2_ns = 0.0;                  ///< calibration: one std::atan2
  double ns_per_candidate_classified = 0.0;  ///< calibration engine pass
};
[[nodiscard]] Host describe_host(const std::string& git_sha);
/// ns per std::atan2 call over a seeded input table (median of 5 passes).
[[nodiscard]] double calibrate_atan2_ns(std::uint64_t seed);
/// Host block as a JSON object string.
[[nodiscard]] std::string host_json(const Host& h);

/// VmHWM of a process in MiB (`pid` 0 = this process); 0 when unreadable.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// JSON string literal escaping.
[[nodiscard]] std::string json_str(const std::string& s);
/// Full-precision number rendering ("%.17g"; non-finite values as null).
[[nodiscard]] std::string json_num(double v);

}  // namespace fvcbench
