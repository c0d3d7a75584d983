/// \file number_text.hpp
/// \brief The repo-wide text form of a double: `%.17g`.
///
/// Seventeen significant digits round-trip every finite double through
/// text exactly, so wire answers, checkpoints, metrics documents and the
/// session digest all print doubles this one way.  The helpers write the
/// same bytes `snprintf("%.17g")` would (nan, -nan, inf and -inf
/// included) through `std::to_chars`, which skips printf's format parsing
/// and locale lookup and is about 4x faster.
///
/// Header-only and dependency-free: obs is the lowest library every
/// text writer links (io, api and cli reach it through core).

#pragma once

#include <charconv>
#include <cstddef>
#include <string>

namespace fvc::obs {

/// Buffer size `format_g17` needs; the longest output,
/// "-2.2250738585072014e-308", is 24 characters.
inline constexpr std::size_t kG17Chars = 32;

/// Writes `v` as `%.17g` into `first[0, kG17Chars)` (no terminator) and
/// returns one past the last character written.
inline char* format_g17(char* first, double v) {
  return std::to_chars(first, first + kG17Chars, v, std::chars_format::general, 17)
      .ptr;
}

/// Appends `v` as `%.17g` to `out`.
inline void append_g17(std::string& out, double v) {
  char buf[kG17Chars];
  out.append(buf, format_g17(buf, v));
}

}  // namespace fvc::obs
