/// \file wire.hpp
/// \brief The `fvc.query/1` wire format: length-prefixed flat-JSON frames.
///
/// A frame is a 4-byte big-endian unsigned length N followed by N bytes of
/// UTF-8 JSON.  The JSON body is a *flat* object — string, number,
/// boolean, or flat number-array values only; nested objects and arrays
/// of anything but finite numbers are rejected — which keeps the parser
/// small, the protocol greppable, and every client implementable in a
/// few lines of any language.  Frames above `kMaxFrameBytes` are
/// rejected before the body is read (a malformed or hostile length
/// prefix must not drive allocation).
///
/// Requests name their operation in `op`:
///   {"op":"point","x":0.5,"y":0.25}
///   {"op":"points","x":[0.5,0.25],"y":[0.25,0.75]}
///   {"op":"region","y_lo":0.4,"y_hi":0.6}
///   {"op":"what_if","action":"add","x":..,"y":..,"orientation":..,
///    "radius":..,"fov":..,"group":..}
///   {"op":"what_if","action":"remove","index":3}
///   {"op":"what_if","action":"move","index":3,"x":..,"y":..,...}
///   {"op":"what_if","action":"set_theta","theta":0.5}
///   {"op":"info"}
///   {"op":"stats"}
/// Responses always carry `ok` plus either the answer fields and the
/// current deployment `digest` ("0x%016x"), or `error` with a message.
/// Doubles travel as %.17g (full round-trip, the repo-wide convention),
/// so served numbers are bit-identical to locally computed ones.
///
/// `stats` is additive in fvc.query/1: its response carries the schema
/// tag `fvc.serve_stats/2` (still a flat object) — a merged telemetry
/// snapshot with uptime, per-request-type counts and latency
/// percentiles, byte/error totals, cache counters and occupancy,
/// watchdog stalls, and deltas since the previous `stats` request (each
/// `stats` request advances the delta baseline).  A server running
/// without a telemetry registry (the embedded `handle_query` form)
/// answers `stats` with ok:false.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace fvc::api {

/// Schema tag carried in every response.
inline constexpr const char* kQuerySchema = "fvc.query/1";

/// Schema tag of a `stats` verb response (see the file comment).
inline constexpr const char* kServeStatsSchema = "fvc.serve_stats/2";

/// Upper bound on a frame body; larger length prefixes are rejected.
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

/// Upper bound on the `points` verb's coordinate arrays, chosen so both
/// the request (two full-width %.17g arrays) and its answer (five answer
/// arrays) stay under `kMaxFrameBytes`.
inline constexpr std::size_t kMaxPointsPerRequest = 8192;

/// Protocol-level failure (malformed JSON, oversized frame, bad field).
/// Servers turn it into an `ok:false` response; a broken length prefix
/// instead closes the connection.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One value of a flat JSON object.
struct WireValue {
  enum class Kind { kNumber, kString, kBool, kNumbers };
  Kind kind = Kind::kNumber;
  double number = 0.0;
  std::string string;
  bool boolean = false;
  std::vector<double> numbers;  ///< flat number array (kNumbers)
};

/// A parsed flat JSON object.
using WireObject = std::map<std::string, WireValue, std::less<>>;

/// Parse a flat JSON object.  \throws WireError on malformed input,
/// nesting, duplicate keys, or non-finite numbers.
[[nodiscard]] WireObject parse_flat_object(std::string_view json);

/// Field accessors; \throws WireError when missing or the wrong kind.
[[nodiscard]] double get_number(const WireObject& obj, std::string_view key);
[[nodiscard]] const std::string& get_string(const WireObject& obj,
                                            std::string_view key);
[[nodiscard]] bool get_bool(const WireObject& obj, std::string_view key);
/// Missing key returns `fallback` (type mismatches still throw).
[[nodiscard]] double get_number_or(const WireObject& obj, std::string_view key,
                                   double fallback);
/// Flat number array; \throws WireError when missing or not an array.
[[nodiscard]] const std::vector<double>& get_numbers(const WireObject& obj,
                                                     std::string_view key);

/// Incremental writer for a flat JSON object (keys in call order).
class JsonObjectWriter {
 public:
  void add_string(std::string_view key, std::string_view value);
  void add_number(std::string_view key, double value);  ///< %.17g
  void add_integer(std::string_view key, std::uint64_t value);
  void add_bool(std::string_view key, bool value);
  void add_number_array(std::string_view key, std::span<const double> values);
  void add_integer_array(std::string_view key,
                         std::span<const std::uint64_t> values);
  /// The completed object; the writer may not be reused afterwards.
  [[nodiscard]] std::string finish();

 private:
  void sep();
  std::string body_ = "{";
};

/// Prepend the 4-byte big-endian length prefix.
/// \throws WireError when `payload` exceeds kMaxFrameBytes.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Parse the length prefix from >= 4 buffered bytes.
/// \throws WireError when the announced length exceeds kMaxFrameBytes.
[[nodiscard]] std::size_t decode_frame_length(const unsigned char header[4]);

}  // namespace fvc::api
