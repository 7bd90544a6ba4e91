#include "util/parse_number.hpp"

#include <cfloat>
#include <climits>
#include <cstdint>
#include <optional>

#include <gtest/gtest.h>

namespace nptsn {
namespace {

TEST(ParseDecimal, AcceptsOnlyAWholeDecimalNumberInRange) {
  EXPECT_EQ(parse_decimal("12", 0, INT_MAX), 12);
  EXPECT_EQ(parse_decimal("-7", -10, 10), -7);
  EXPECT_EQ(parse_decimal("4096", 0, 4096), 4096);
  EXPECT_EQ(parse_decimal<std::uint64_t>("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(parse_decimal("0.25", 0.0, DBL_MAX), 0.25);
  EXPECT_EQ(parse_decimal("1e3", 0.0, DBL_MAX), 1000.0);

  // What atoi, atof and strtoull read as some number.
  for (const char* bad : {"", "abc", "5x", " 5", "5 ", "+5", "0x10", "1.5", "high"}) {
    EXPECT_EQ(parse_decimal(bad, INT_MIN, INT_MAX), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_decimal<std::size_t>("-1", 0, SIZE_MAX), std::nullopt);
  EXPECT_EQ(parse_decimal("2147483648", INT_MIN, INT_MAX), std::nullopt);
  EXPECT_EQ(parse_decimal("0", 1, INT_MAX), std::nullopt);
  EXPECT_EQ(parse_decimal("4097", 0, 4096), std::nullopt);
  for (const char* bad : {"nan", "inf", "-inf", "1e999", "-0.5", "2.5x", "0x1p3"}) {
    EXPECT_EQ(parse_decimal(bad, 0.0, DBL_MAX), std::nullopt) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace nptsn
