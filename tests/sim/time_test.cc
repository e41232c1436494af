#include "sim/time.h"

#include <gtest/gtest.h>

namespace dynvote {
namespace {

TEST(SimTimeTest, UnitConversions) {
  EXPECT_DOUBLE_EQ(Days(2.0), 2.0);
  EXPECT_DOUBLE_EQ(Hours(24.0), 1.0);
  EXPECT_DOUBLE_EQ(Hours(3.0), 0.125);
  EXPECT_DOUBLE_EQ(Minutes(1440.0), 1.0);
  EXPECT_DOUBLE_EQ(Minutes(15.0), 15.0 / 1440.0);
  EXPECT_DOUBLE_EQ(Years(1.0), 365.0);
  EXPECT_DOUBLE_EQ(ToHours(0.5), 12.0);
  EXPECT_DOUBLE_EQ(ToMinutes(1.0), 1440.0);
  EXPECT_DOUBLE_EQ(ToYears(730.0), 2.0);
}

}  // namespace
}  // namespace dynvote
