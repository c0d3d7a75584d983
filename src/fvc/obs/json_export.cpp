#include "fvc/obs/json_export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "fvc/obs/number_text.hpp"

namespace fvc::obs {

namespace {

void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Shortest representation that round-trips the double; JSON has no
/// Inf/NaN, so those degrade to 0 (counters never produce them).
void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  if (v == static_cast<double>(static_cast<long long>(v)) && std::abs(v) < 1e15) {
    os << static_cast<long long>(v);
    return;
  }
  char buf[kG17Chars];
  os.write(buf, format_g17(buf, v) - buf);
}

void indent(std::ostream& os, int depth) {
  for (int i = 0; i < depth; ++i) {
    os << "  ";
  }
}

void write_node(std::ostream& os, const MetricsNode& node, int depth) {
  indent(os, depth);
  os << "{\n";
  indent(os, depth + 1);
  os << "\"name\": ";
  write_escaped(os, node.name());
  os << ",\n";
  indent(os, depth + 1);
  os << "\"elapsed_ns\": " << node.elapsed_ns() << ",\n";

  indent(os, depth + 1);
  os << "\"counters\": {";
  bool first = true;
  for (const auto& [key, value] : node.counters()) {
    os << (first ? "\n" : ",\n");
    first = false;
    indent(os, depth + 2);
    write_escaped(os, key);
    os << ": ";
    write_number(os, value);
  }
  if (!first) {
    os << "\n";
    indent(os, depth + 1);
  }
  os << "},\n";

  indent(os, depth + 1);
  os << "\"histograms\": {";
  first = true;
  for (const auto& [key, hist] : node.histograms()) {
    os << (first ? "\n" : ",\n");
    first = false;
    indent(os, depth + 2);
    write_escaped(os, key);
    os << ": { \"total\": " << hist.total() << ", \"buckets\": [";
    for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
      os << (b == 0 ? "" : ", ") << hist.bucket(b);
    }
    os << "] }";
  }
  if (!first) {
    os << "\n";
    indent(os, depth + 1);
  }
  os << "},\n";

  indent(os, depth + 1);
  os << "\"children\": [";
  first = true;
  for (const auto& c : node.children()) {
    os << (first ? "\n" : ",\n");
    first = false;
    write_node(os, *c, depth + 2);
  }
  if (!first) {
    os << "\n";
    indent(os, depth + 1);
  }
  os << "]\n";
  indent(os, depth);
  os << "}";
}

}  // namespace

void write_json(std::ostream& os, const RunMetrics& metrics) {
  os << "{\n  \"schema\": ";
  write_escaped(os, RunMetrics::kSchema);
  os << ",\n  \"labels\": {";
  bool first = true;
  for (const auto& [key, value] : metrics.labels()) {
    os << (first ? "\n" : ",\n");
    first = false;
    indent(os, 2);
    write_escaped(os, key);
    os << ": ";
    write_escaped(os, value);
  }
  if (!first) {
    os << "\n  ";
  }
  os << "},\n  \"root\":\n";
  write_node(os, metrics.root(), 1);
  os << "\n}\n";
}

std::string to_json(const RunMetrics& metrics) {
  std::ostringstream ss;
  write_json(ss, metrics);
  return ss.str();
}

void write_json_file(const std::string& path, const RunMetrics& metrics) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("write_json_file: cannot open " + path);
  }
  write_json(os, metrics);
  if (!os) {
    throw std::runtime_error("write_json_file: write failed for " + path);
  }
}

void write_text_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw std::runtime_error("write_text_file_atomic: cannot open " + tmp);
    }
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
    if (!os) {
      throw std::runtime_error("write_text_file_atomic: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("write_text_file_atomic: rename failed for " + path);
  }
}

void write_json_file_atomic(const std::string& path, const RunMetrics& metrics) {
  write_text_file_atomic(path, to_json(metrics));
}

}  // namespace fvc::obs
