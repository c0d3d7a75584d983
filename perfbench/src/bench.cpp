#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>

#include "fvc/stats/distributions.hpp"
#include "fvc/stats/rng.hpp"

#ifndef FVCBENCH_COMPILER
#define FVCBENCH_COMPILER "unknown"
#endif
#ifndef FVCBENCH_FLAGS
#define FVCBENCH_FLAGS "unknown"
#endif
#ifndef FVCBENCH_BUILD_TYPE
#define FVCBENCH_BUILD_TYPE "unknown"
#endif

namespace fvcbench {

double Samples::quantile(double p) const {
  if (values_.empty()) {
    return 0.0;
  }
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Samples::sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::max() const {
  return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
}

void Report::e2e(const std::string& name, const std::string& unit, double value,
                 std::size_t samples) {
  e2e_.push_back({name, unit, value, samples});
}

void Report::layer(const std::string& name, const std::string& unit, double value,
                   std::size_t samples) {
  layer_.push_back({name, unit, value, samples});
}

void Report::info(const std::string& name, const std::string& unit, double value,
                  std::size_t samples) {
  info_.push_back({name, unit, value, samples});
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    failures_.push_back(what + ": " + std::to_string(failed) + " of " +
                        std::to_string(attempted) + " failed");
  }
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

void Report::param(const std::string& key, const std::string& value) {
  params_.emplace_back(key, json_str(value));
}

void Report::param(const std::string& key, double value) {
  params_.emplace_back(key, json_num(value));
}

namespace {

void print_table(const char* title, const std::vector<std::pair<std::string, std::string>>& rows) {
  std::printf("%s\n", title);
  for (const auto& [k, v] : rows) {
    std::printf("  %-44s %s\n", k.c_str(), v.c_str());
  }
}

}  // namespace

void Report::finish(bool trace, const std::string& record_path) const {
  const auto render = [](const std::vector<Metric>& ms) {
    std::vector<std::pair<std::string, std::string>> rows;
    for (const Metric& m : ms) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%.6g %s (n=%zu)", m.value, m.unit.c_str(), m.samples);
      rows.emplace_back(m.name, buf);
    }
    return rows;
  };
  print_table(trace ? "per-layer metrics (traced run)" : "end-to-end metrics", render(trace ? layer_ : e2e_));
  if (!info_.empty()) {
    print_table("workload figures", render(info_));
  }
  for (const std::string& f : failures_) {
    std::printf("FAILED: %s\n", f.c_str());
  }

  const auto metrics_json = [](const std::vector<Metric>& ms, bool with_samples) {
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      s += (i ? ", " : "") + json_str(ms[i].name) + ": {\"value\": " + json_num(ms[i].value) +
           ", \"unit\": " + json_str(ms[i].unit);
      if (with_samples) {
        s += ", \"samples\": " + std::to_string(ms[i].samples);
      }
      s += "}";
    }
    return s + "}";
  };
  if (!record_path.empty()) {
    std::ostringstream os;
    os << "{\n  \"schema\": \"fvc.perfbench/1\",\n  \"params\": {";
    for (std::size_t i = 0; i < params_.size(); ++i) {
      os << (i ? ", " : "") << json_str(params_[i].first) << ": " << params_[i].second;
    }
    os << "},\n  \"correct\": " << (correct() ? "true" : "false")
       << ",\n  \"attempted\": " << attempted_ << ",\n  \"failed\": " << failed_
       << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      os << (i ? ", " : "") << json_str(failures_[i]);
    }
    os << "],\n  \"end_to_end\": " << metrics_json(e2e_, true)
       << ",\n  \"per_layer\": " << metrics_json(layer_, true)
       << ",\n  \"workload_figures\": " << metrics_json(info_, true)
       << ",\n  \"self_time_ms\": {";
    std::size_t i = 0;
    for (const auto& [k, v] : self_ms_) {
      os << (i++ ? ", " : "") << json_str(k) << ": " << json_num(v);
    }
    os << "}\n}\n";
    std::ofstream f(record_path);
    f << os.str();
    std::printf("record: %s\n", record_path.c_str());
  }
  std::fflush(stdout);
  std::cout << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": " << metrics_json(trace ? layer_ : e2e_, false) << "}"
            << std::endl;
}

SelfTimes analyse_trace(const fvc::obs::TraceSession::Drained& drained, const char* root) {
  using fvc::obs::TracePhase;
  SelfTimes out;
  out.evicted = drained.evicted;
  struct Open {
    const char* name;
    std::uint64_t start;
    std::uint64_t child_ns;
  };
  std::map<std::uint32_t, std::vector<Open>> stacks;
  std::uint32_t root_tid = 0;
  struct Interval {
    std::uint64_t start, end;
    double busy_ms;
  };
  std::vector<Interval> sections;
  std::vector<Interval> workers;
  for (const fvc::obs::TraceEvent& ev : drained.events) {
    if (ev.phase == TracePhase::kBegin) {
      stacks[ev.tid].push_back({ev.name, ev.ts_ns, 0});
      if (root_tid == 0 && std::string(ev.name) == root) {
        root_tid = ev.tid;
      }
      continue;
    }
    if (ev.phase != TracePhase::kEnd) {
      continue;
    }
    std::vector<Open>& stack = stacks[ev.tid];
    if (stack.empty() || std::string(stack.back().name) != ev.name) {
      ++out.unmatched;
      continue;
    }
    const Open o = stack.back();
    stack.pop_back();
    const std::uint64_t dur = ev.ts_ns - o.start;
    const double self_ms = static_cast<double>(dur - std::min(dur, o.child_ns)) / 1e6;
    out.self_ms[o.name] += self_ms;
    if (!stack.empty()) {
      stack.back().child_ns += dur;
    }
    if (ev.tid == root_tid && std::string(o.name) == root) {
      out.root_self_ms = self_ms;
    }
    if (std::string(o.name) == "pool.parallel_for") {
      sections.push_back({o.start, ev.ts_ns, 0.0});
    } else if (std::string(o.name) == "pool.worker") {
      // A worker's only direct children are its pool.block slices.
      workers.push_back({o.start, ev.ts_ns, static_cast<double>(o.child_ns) / 1e6});
    }
  }
  for (const Interval& s : sections) {
    SelfTimes::PoolSection ps;
    ps.wall_ms = static_cast<double>(s.end - s.start) / 1e6;
    for (const Interval& w : workers) {
      if (w.start >= s.start && w.end <= s.end) {
        ps.busy_ms.push_back(w.busy_ms);
      }
    }
    out.pool_sections.push_back(std::move(ps));
  }
  for (const auto& [tid, stack] : stacks) {
    out.unmatched += stack.size();
  }
  return out;
}

Host describe_host(const std::string& git_sha) {
  Host h;
  std::ifstream cpu("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpu, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      h.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  h.nproc = std::max(1U, std::thread::hardware_concurrency());
  h.compiler = FVCBENCH_COMPILER;
  h.flags = FVCBENCH_FLAGS;
  h.build_type = FVCBENCH_BUILD_TYPE;
  h.git_sha = git_sha;
  return h;
}

double calibrate_atan2_ns(std::uint64_t seed) {
  constexpr std::size_t kN = 1 << 16;
  fvc::stats::Pcg32 rng = fvc::stats::make_child_rng(seed, 0xA7A2);
  std::vector<double> ys(kN);
  std::vector<double> xs(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ys[i] = fvc::stats::uniform_in(rng, -1.0, 1.0);
    xs[i] = fvc::stats::uniform_in(rng, -1.0, 1.0);
  }
  Samples passes;
  volatile double sink = 0.0;
  for (int pass = 0; pass < 7; ++pass) {
    double acc = 0.0;
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kN; ++i) {
      acc += std::atan2(ys[i], xs[i]);
    }
    passes.add(static_cast<double>(now_ns() - t0) / static_cast<double>(kN));
    sink = sink + acc;
  }
  return passes.median();
}

std::string host_json(const Host& h) {
  std::ostringstream os;
  os << "{\"cpu_model\": " << json_str(h.cpu_model) << ", \"nproc\": " << h.nproc
     << ", \"compiler\": " << json_str(h.compiler) << ", \"flags\": " << json_str(h.flags)
     << ", \"build_type\": " << json_str(h.build_type) << ", \"git_sha\": " << json_str(h.git_sha)
     << ", \"degenerate_host\": " << (h.nproc < 2 ? "true" : "false")
     << ", \"calibration\": {\"atan2_ns\": " << json_num(h.atan2_ns)
     << ", \"ns_per_candidate_classified\": " << json_num(h.ns_per_candidate_classified) << "}}";
  return os.str();
}

double peak_rss_mb(int pid) {
  std::ifstream f(pid == 0 ? std::string("/proc/self/status")
                           : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace fvcbench
