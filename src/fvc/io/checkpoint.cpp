#include "fvc/io/checkpoint.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "fvc/obs/number_text.hpp"

namespace fvc::io {

namespace {

/// %.17g round-trips every finite double through text exactly.
void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("checkpoint: payload values must be finite");
  }
  obs::append_g17(out, value);
}

void append_hex64(std::string& out, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "\"0x%016llx\"",
                static_cast<unsigned long long>(value));
  out += buf;
}

/// Minimal recursive-descent parser for the checkpoint document.  The
/// test-support minijson is test-only by design, and the library cannot
/// depend on it; this parser accepts general JSON but is private to the
/// checkpoint reader.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  void expect_eof() {
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of document");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          fail("unterminated escape");
        }
        c = text_[pos_++];
        switch (c) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case '"': case '\\': case '/': out += c; break;
          default: fail("unsupported escape in string");
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
    }
    ++pos_;  // closing quote
    return out;
  }

  double parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail("malformed number '" + token + "'");
    }
    return value;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("read_checkpoint: " + what);
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::uint64_t parse_hex64(Parser& p, const std::string& key) {
  const std::string s = p.parse_string();
  if (s.size() < 3 || s[0] != '0' || s[1] != 'x') {
    p.fail(key + " must be a \"0x...\" hex string");
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(s.c_str() + 2, &end, 16);
  if (end != s.c_str() + s.size()) {
    p.fail(key + " has a malformed hex value '" + s + "'");
  }
  return static_cast<std::uint64_t>(value);
}

std::uint64_t parse_u64(Parser& p, const std::string& key) {
  const double value = p.parse_number();
  if (value < 0.0 || value != std::floor(value) || value > 0x1.0p53) {
    p.fail(key + " must be a non-negative integer below 2^53");
  }
  return static_cast<std::uint64_t>(value);
}

CheckpointUnit parse_unit(Parser& p) {
  CheckpointUnit unit;
  p.expect('{');
  bool first = true;
  while (p.peek() != '}') {
    if (!first) {
      p.expect(',');
    }
    first = false;
    const std::string key = p.parse_string();
    p.expect(':');
    if (key == "index") {
      unit.index = parse_u64(p, "units[].index");
    } else if (key == "payload") {
      p.expect('[');
      while (p.peek() != ']') {
        if (!unit.payload.empty()) {
          p.expect(',');
        }
        unit.payload.push_back(p.parse_number());
      }
      p.expect(']');
    } else {
      p.fail("unknown unit key '" + key + "'");
    }
  }
  p.expect('}');
  return unit;
}

}  // namespace

void Checkpoint::normalize() {
  std::stable_sort(units.begin(), units.end(),
                   [](const CheckpointUnit& a, const CheckpointUnit& b) {
                     return a.index < b.index;
                   });
  // Keep the LAST entry per index: a rewritten unit supersedes the earlier
  // record from the same file.
  std::vector<CheckpointUnit> unique;
  unique.reserve(units.size());
  for (CheckpointUnit& unit : units) {
    if (!unique.empty() && unique.back().index == unit.index) {
      unique.back() = std::move(unit);
    } else {
      unique.push_back(std::move(unit));
    }
  }
  units = std::move(unique);
}

std::vector<std::uint64_t> Checkpoint::completed_indices() const {
  std::vector<std::uint64_t> indices;
  indices.reserve(units.size());
  for (const CheckpointUnit& unit : units) {
    indices.push_back(unit.index);
  }
  return indices;
}

bool Checkpoint::complete() const {
  if (units.size() != total_units) {
    return false;
  }
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (units[i].index != i) {
      return false;
    }
  }
  return true;
}

std::uint64_t config_digest64(std::string_view canonical) {
  return fnv1a64(kFnv1a64Basis, canonical);
}

std::uint64_t fnv1a64(std::uint64_t state, std::string_view bytes) {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

void write_checkpoint(std::ostream& os, const Checkpoint& cp) {
  std::string out;
  out.reserve(64 + cp.units.size() * 48);
  out += "{\n";
  out += "  \"schema\": \"";
  out += kCheckpointSchema;
  out += "\",\n";
  out += "  \"kind\": \"" + cp.kind + "\",\n";
  out += "  \"master_seed\": ";
  append_hex64(out, cp.master_seed);
  out += ",\n  \"config_digest\": ";
  append_hex64(out, cp.config_digest);
  out += ",\n  \"total_units\": " + std::to_string(cp.total_units);
  out += ",\n  \"shard_index\": " + std::to_string(cp.shard_index);
  out += ",\n  \"shard_count\": " + std::to_string(cp.shard_count);
  out += ",\n  \"units\": [";
  for (std::size_t i = 0; i < cp.units.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"index\": " + std::to_string(cp.units[i].index) + ", \"payload\": [";
    const std::vector<double>& payload = cp.units[i].payload;
    for (std::size_t j = 0; j < payload.size(); ++j) {
      if (j != 0) {
        out += ", ";
      }
      append_double(out, payload[j]);
    }
    out += "]}";
  }
  out += cp.units.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  os << out;
}

Checkpoint read_checkpoint(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  Parser p(text);
  Checkpoint cp;
  bool saw_schema = false;
  p.expect('{');
  bool first = true;
  while (p.peek() != '}') {
    if (!first) {
      p.expect(',');
    }
    first = false;
    const std::string key = p.parse_string();
    p.expect(':');
    if (key == "schema") {
      const std::string schema = p.parse_string();
      if (schema != kCheckpointSchema) {
        p.fail("unknown schema '" + schema + "' (expected '" +
               std::string(kCheckpointSchema) + "')");
      }
      saw_schema = true;
    } else if (key == "kind") {
      cp.kind = p.parse_string();
    } else if (key == "master_seed") {
      cp.master_seed = parse_hex64(p, "master_seed");
    } else if (key == "config_digest") {
      cp.config_digest = parse_hex64(p, "config_digest");
    } else if (key == "total_units") {
      cp.total_units = parse_u64(p, "total_units");
    } else if (key == "shard_index") {
      cp.shard_index = parse_u64(p, "shard_index");
    } else if (key == "shard_count") {
      cp.shard_count = parse_u64(p, "shard_count");
    } else if (key == "units") {
      p.expect('[');
      while (p.peek() != ']') {
        if (!cp.units.empty()) {
          p.expect(',');
        }
        cp.units.push_back(parse_unit(p));
      }
      p.expect(']');
    } else {
      p.fail("unknown key '" + key + "'");
    }
  }
  p.expect('}');
  p.expect_eof();
  if (!saw_schema) {
    p.fail("missing schema tag");
  }
  cp.normalize();
  return cp;
}

void save_checkpoint_file(const std::string& path, const Checkpoint& cp) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) {
      throw std::runtime_error("save_checkpoint_file: cannot open " + tmp);
    }
    write_checkpoint(os, cp);
    os.flush();
    if (!os) {
      throw std::runtime_error("save_checkpoint_file: write failed for " + tmp);
    }
  }
  // POSIX rename atomically replaces `path`: a reader (or a crash) sees
  // either the old complete document or the new one, never a prefix.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("save_checkpoint_file: rename to " + path + " failed");
  }
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("load_checkpoint_file: cannot open " + path);
  }
  return read_checkpoint(is);
}

Checkpoint merge_checkpoints(std::span<const Checkpoint> shards) {
  if (shards.empty()) {
    throw std::runtime_error("merge_checkpoints: need at least one shard");
  }
  Checkpoint merged;
  merged.kind = shards[0].kind;
  merged.master_seed = shards[0].master_seed;
  merged.config_digest = shards[0].config_digest;
  merged.total_units = shards[0].total_units;
  merged.shard_index = 0;
  merged.shard_count = 1;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Checkpoint& shard = shards[i];
    const std::string where = "shard " + std::to_string(i);
    if (shard.kind != merged.kind) {
      throw std::runtime_error("merge_checkpoints: " + where + " has kind '" +
                               shard.kind + "' but shard 0 has '" + merged.kind + "'");
    }
    if (shard.master_seed != merged.master_seed) {
      throw std::runtime_error("merge_checkpoints: " + where +
                               " was produced under a different master_seed");
    }
    if (shard.config_digest != merged.config_digest) {
      throw std::runtime_error("merge_checkpoints: " + where +
                               " was produced under a different config_digest");
    }
    if (shard.total_units != merged.total_units) {
      throw std::runtime_error("merge_checkpoints: " + where + " expects " +
                               std::to_string(shard.total_units) +
                               " total units but shard 0 expects " +
                               std::to_string(merged.total_units));
    }
    if (shard.shard_count != shards[0].shard_count) {
      throw std::runtime_error("merge_checkpoints: " + where + " is part of a " +
                               std::to_string(shard.shard_count) +
                               "-way partition but shard 0 is part of a " +
                               std::to_string(shards[0].shard_count) + "-way one");
    }
    merged.units.insert(merged.units.end(), shard.units.begin(), shard.units.end());
  }
  std::stable_sort(merged.units.begin(), merged.units.end(),
                   [](const CheckpointUnit& a, const CheckpointUnit& b) {
                     return a.index < b.index;
                   });
  for (std::size_t i = 1; i < merged.units.size(); ++i) {
    if (merged.units[i].index == merged.units[i - 1].index) {
      throw std::runtime_error("merge_checkpoints: unit " +
                               std::to_string(merged.units[i].index) +
                               " appears in more than one shard");
    }
  }
  return merged;
}

}  // namespace fvc::io
