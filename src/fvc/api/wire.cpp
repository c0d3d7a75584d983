#include "fvc/api/wire.hpp"

#include <cmath>
#include <cstdlib>

#include "fvc/obs/number_text.hpp"

namespace fvc::api {

namespace {

/// Minimal recursive-descent scanner over one flat object.  Deliberately
/// strict: nesting, trailing garbage, duplicate keys and non-finite
/// numbers are protocol errors, never silently tolerated — a daemon that
/// guesses what a client meant serves wrong answers quietly.
class Scanner {
 public:
  explicit Scanner(std::string_view s) : s_(s) {}

  WireObject parse() {
    skip_ws();
    expect('{');
    WireObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
    } else {
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        skip_ws();
        if (!obj.emplace(std::move(key), parse_value()).second) {
          throw WireError("wire: duplicate key in object");
        }
        skip_ws();
        const char c = next();
        if (c == '}') {
          break;
        }
        if (c != ',') {
          throw WireError("wire: expected ',' or '}' in object");
        }
      }
    }
    skip_ws();
    if (pos_ != s_.size()) {
      throw WireError("wire: trailing bytes after object");
    }
    return obj;
  }

 private:
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  char next() {
    if (pos_ >= s_.size()) {
      throw WireError("wire: unexpected end of input");
    }
    return s_[pos_++];
  }

  void expect(char c) {
    if (next() != c) {
      throw WireError(std::string("wire: expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') {
        return out;
      }
      if (c == '\\') {
        const char esc = next();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default:
            throw WireError("wire: unsupported escape in string");
        }
      } else {
        out += c;
      }
    }
  }

  WireValue parse_value() {
    const char c = peek();
    WireValue v;
    if (c == '"') {
      v.kind = WireValue::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (c == 't' || c == 'f') {
      const std::string_view want = c == 't' ? "true" : "false";
      if (s_.substr(pos_, want.size()) != want) {
        throw WireError("wire: malformed literal");
      }
      pos_ += want.size();
      v.kind = WireValue::Kind::kBool;
      v.boolean = c == 't';
      return v;
    }
    if (c == '{') {
      throw WireError("wire: nested objects are not part of fvc.query/1");
    }
    if (c == '[') {
      // Flat number array — the one nesting level fvc.query/1 admits
      // (the `points` verb's coordinate and answer vectors).  Elements
      // must be finite numbers; anything else inside is a protocol
      // error, same as at top level.
      ++pos_;
      v.kind = WireValue::Kind::kNumbers;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        skip_ws();
        const char e = peek();
        if (e == '"' || e == 't' || e == 'f' || e == '{' || e == '[') {
          throw WireError("wire: arrays may hold numbers only");
        }
        v.numbers.push_back(parse_number("]"));
        skip_ws();
        const char sep = next();
        if (sep == ']') {
          return v;
        }
        if (sep != ',') {
          throw WireError("wire: expected ',' or ']' in array");
        }
      }
    }
    v.kind = WireValue::Kind::kNumber;
    v.number = parse_number("");
    return v;
  }

  /// One number token, delegated to strtod over the value's extent.
  /// `extra_stops` adds terminators beyond the flat-object set (the
  /// array parser stops at ']' too).
  double parse_number(std::string_view extra_stops) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' &&
           s_[pos_] != ' ' && s_[pos_] != '\t' && s_[pos_] != '\n' &&
           s_[pos_] != '\r' &&
           extra_stops.find(s_[pos_]) == std::string_view::npos) {
      ++pos_;
    }
    const std::string text(s_.substr(start, pos_ - start));
    if (text.empty()) {
      throw WireError("wire: expected a value");
    }
    char* end = nullptr;
    const double num = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !std::isfinite(num)) {
      throw WireError("wire: malformed number '" + text + "'");
    }
    return num;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

const WireValue& require(const WireObject& obj, std::string_view key) {
  const auto it = obj.find(key);
  if (it == obj.end()) {
    throw WireError("wire: missing field '" + std::string(key) + "'");
  }
  return it->second;
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c; break;
    }
  }
}

}  // namespace

WireObject parse_flat_object(std::string_view json) {
  return Scanner(json).parse();
}

double get_number(const WireObject& obj, std::string_view key) {
  const WireValue& v = require(obj, key);
  if (v.kind != WireValue::Kind::kNumber) {
    throw WireError("wire: field '" + std::string(key) + "' must be a number");
  }
  return v.number;
}

const std::string& get_string(const WireObject& obj, std::string_view key) {
  const WireValue& v = require(obj, key);
  if (v.kind != WireValue::Kind::kString) {
    throw WireError("wire: field '" + std::string(key) + "' must be a string");
  }
  return v.string;
}

bool get_bool(const WireObject& obj, std::string_view key) {
  const WireValue& v = require(obj, key);
  if (v.kind != WireValue::Kind::kBool) {
    throw WireError("wire: field '" + std::string(key) + "' must be a boolean");
  }
  return v.boolean;
}

const std::vector<double>& get_numbers(const WireObject& obj,
                                       std::string_view key) {
  const WireValue& v = require(obj, key);
  if (v.kind != WireValue::Kind::kNumbers) {
    throw WireError("wire: field '" + std::string(key) +
                    "' must be a number array");
  }
  return v.numbers;
}

double get_number_or(const WireObject& obj, std::string_view key, double fallback) {
  const auto it = obj.find(key);
  if (it == obj.end()) {
    return fallback;
  }
  if (it->second.kind != WireValue::Kind::kNumber) {
    throw WireError("wire: field '" + std::string(key) + "' must be a number");
  }
  return it->second.number;
}

void JsonObjectWriter::sep() {
  if (body_.size() > 1) {
    body_ += ',';
  }
}

void JsonObjectWriter::add_string(std::string_view key, std::string_view value) {
  sep();
  body_ += '"';
  append_escaped(body_, key);
  body_ += "\":\"";
  append_escaped(body_, value);
  body_ += '"';
}

void JsonObjectWriter::add_number(std::string_view key, double value) {
  sep();
  body_ += '"';
  append_escaped(body_, key);
  body_ += "\":";
  obs::append_g17(body_, value);
}

void JsonObjectWriter::add_integer(std::string_view key, std::uint64_t value) {
  sep();
  body_ += '"';
  append_escaped(body_, key);
  body_ += "\":";
  body_ += std::to_string(value);
}

void JsonObjectWriter::add_bool(std::string_view key, bool value) {
  sep();
  body_ += '"';
  append_escaped(body_, key);
  body_ += "\":";
  body_ += value ? "true" : "false";
}

void JsonObjectWriter::add_number_array(std::string_view key,
                                        std::span<const double> values) {
  sep();
  body_ += '"';
  append_escaped(body_, key);
  body_ += "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) {
      body_ += ',';
    }
    obs::append_g17(body_, values[i]);
  }
  body_ += ']';
}

void JsonObjectWriter::add_integer_array(std::string_view key,
                                         std::span<const std::uint64_t> values) {
  sep();
  body_ += '"';
  append_escaped(body_, key);
  body_ += "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) {
      body_ += ',';
    }
    body_ += std::to_string(values[i]);
  }
  body_ += ']';
}

std::string JsonObjectWriter::finish() {
  body_ += '}';
  return std::move(body_);
}

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw WireError("wire: frame exceeds kMaxFrameBytes");
  }
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(4 + payload.size());
  frame += static_cast<char>((n >> 24) & 0xff);
  frame += static_cast<char>((n >> 16) & 0xff);
  frame += static_cast<char>((n >> 8) & 0xff);
  frame += static_cast<char>(n & 0xff);
  frame += payload;
  return frame;
}

std::size_t decode_frame_length(const unsigned char header[4]) {
  const std::size_t n = (static_cast<std::size_t>(header[0]) << 24) |
                        (static_cast<std::size_t>(header[1]) << 16) |
                        (static_cast<std::size_t>(header[2]) << 8) |
                        static_cast<std::size_t>(header[3]);
  if (n > kMaxFrameBytes) {
    throw WireError("wire: announced frame length exceeds kMaxFrameBytes");
  }
  return n;
}

}  // namespace fvc::api
