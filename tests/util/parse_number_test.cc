// Whole-string number parsing: the std::sto* grammar, with every failure
// an InvalidArgument Status and no silent truncation of a trailing tail.

#include "util/parse_number.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace dynvote {
namespace {

TEST(ParseNumberTest, AcceptsWholeNumbers) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_EQ(*ParseDouble("2.5"), 2.5);
  EXPECT_EQ(*ParseDouble("1e3"), 1000.0);
  EXPECT_EQ(*ParseUint64("18446744073709551615"), UINT64_MAX);
}

TEST(ParseNumberTest, RejectsEmptyNonNumericAndTrailingText) {
  for (const char* text : {"", "abc", "2abc", "2 ", "0x"}) {
    EXPECT_TRUE(ParseInt(text).status().IsInvalidArgument()) << text;
    EXPECT_TRUE(ParseDouble(text).status().IsInvalidArgument()) << text;
    EXPECT_TRUE(ParseUint64(text).status().IsInvalidArgument()) << text;
  }
  EXPECT_EQ(ParseInt("2abc").status().message(), "invalid integer '2abc'");
}

TEST(ParseNumberTest, RejectsOutOfRangeValues) {
  EXPECT_EQ(ParseInt("99999999999").status().message(),
            "integer out of range: '99999999999'");
  EXPECT_TRUE(ParseDouble("1e999").status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseUint64("99999999999999999999999").status().IsInvalidArgument());
  // std::stoull would wrap "-1" to 2^64 - 1.
  EXPECT_TRUE(ParseUint64("-1").status().IsInvalidArgument());
}

}  // namespace
}  // namespace dynvote
