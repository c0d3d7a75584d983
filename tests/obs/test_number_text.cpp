/// The shared %.17g formatter must write exactly what snprintf("%.17g")
/// writes: every digest, wire answer and checkpoint depends on the bytes.

#include "fvc/obs/number_text.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "fvc/stats/rng.hpp"

namespace fvc::obs {
namespace {

std::string printf_g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string helper_g17(double v) {
  std::string s = "prefix:";
  append_g17(s, v);
  EXPECT_EQ(s.rfind("prefix:", 0), 0u);
  return s.substr(7);
}

TEST(NumberText, MatchesPrintfOnSeededRandomBitPatterns) {
  // Raw 64-bit patterns cover every exponent, subnormals and NaN
  // payloads; uniform draws cover the [0, 1) values cameras carry.
  stats::SplitMix64 rng(0x5EEDu);
  for (int i = 0; i < 300000; ++i) {
    const double v = std::bit_cast<double>(rng());
    ASSERT_EQ(helper_g17(v), printf_g17(v)) << std::bit_cast<std::uint64_t>(v);
  }
  for (int i = 0; i < 100000; ++i) {
    const double v = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    ASSERT_EQ(helper_g17(v), printf_g17(v)) << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(NumberText, MatchesPrintfOnEdgeCases) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double cases[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          DBL_MIN,
                          -DBL_MIN,
                          std::nextafter(DBL_MIN, 0.0),
                          DBL_MAX,
                          -DBL_MAX,
                          DBL_EPSILON,
                          9007199254740992.0,   // 2^53
                          9007199254740994.0,   // 2^53 + 2
                          18014398509481984.0,  // 2^54
                          1e17,
                          -123456789012345678.0,
                          1e16,
                          1e-4,
                          1e-5,
                          0.1,
                          1.0 / 3.0,
                          100.0,
                          nan,
                          -nan,
                          inf,
                          -inf};
  for (const double v : cases) {
    EXPECT_EQ(helper_g17(v), printf_g17(v)) << std::bit_cast<std::uint64_t>(v);
  }
  // The buffer bound holds for the longest rendering.
  char buf[kG17Chars];
  EXPECT_EQ(format_g17(buf, -DBL_MIN) - buf, 24);
}

}  // namespace
}  // namespace fvc::obs
