/// \file bench_host.hpp
/// \brief The `host` block shared by the bench record writers
/// (bench_compare, bench_scale, bench_serve): which machine and build produced a
/// record, so a timing is only ever compared with one from the same host
/// and configuration.  The compiler, flags and build type come from
/// compile definitions set in tools/CMakeLists.txt.

#pragma once

#include <algorithm>
#include <fstream>
#include <string>
#include <thread>

namespace fvc::tools {

/// JSON string literal for `s` (escapes quotes, backslashes and control
/// characters).
inline std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// The first "model name" line of /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream cpu("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpu, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// One-line JSON object: cpu_model, hardware_concurrency, compiler, flags,
/// build_type.
inline std::string host_json() {
  const unsigned cores = std::max(1U, std::thread::hardware_concurrency());
  return "{\"cpu_model\": " + json_quote(cpu_model()) +
         ", \"hardware_concurrency\": " + std::to_string(cores) +
         ", \"compiler\": " + json_quote(FVC_BENCH_COMPILER) +
         ", \"flags\": " + json_quote(FVC_BENCH_FLAGS) +
         ", \"build_type\": " + json_quote(FVC_BENCH_BUILD_TYPE) + "}";
}

}  // namespace fvc::tools
