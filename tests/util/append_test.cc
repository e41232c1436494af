// util/append.h is the one rendering of integers, doubles and JSON
// strings behind every trace, metrics, export and serving document. These
// tests pin its bytes to the printf and ostream renderings the writers
// used before, which is what keeps those documents byte-identical.

#include "util/append.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <string>

namespace dynvote {
namespace {

const double kDoubles[] = {0.0,     -0.0,    0.1,      1.0 / 3.0,
                           1e-7,    5e-324,  DBL_MAX,  365.0,
                           9007199254740992.0 * 1024.0};

std::string Appended(double value, int precision) {
  std::string out = "x";  // appends, never overwrites
  AppendDouble(value, &out, precision);
  return out.substr(1);
}

TEST(AppendDoubleTest, MatchesPrintfGeneralFormat) {
  for (int precision : {17, 9}) {
    for (double value : kDoubles) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
      EXPECT_EQ(Appended(value, precision), buf)
          << "precision " << precision;
    }
  }
}

TEST(AppendDoubleTest, MatchesOstreamAtSetprecision) {
  for (int precision : {17, 9}) {
    for (double value : kDoubles) {
      std::ostringstream os;
      os << std::setprecision(precision) << value;
      EXPECT_EQ(Appended(value, precision), os.str())
          << "precision " << precision;
    }
  }
}

TEST(AppendDoubleTest, DefaultsToSeventeenDigits) {
  std::string out;
  AppendDouble(0.1, &out);
  EXPECT_EQ(out, "0.10000000000000001");
}

TEST(AppendJsonStringTest, EscapesQuoteBackslashAndControlBytes) {
  std::string out;
  AppendJsonString(std::string("cs\"vax\\x\n\t\x01\x1f", 12), &out);
  EXPECT_EQ(out, "\"cs\\\"vax\\\\x\\u000a\\u0009\\u0001\\u001f\"");
}

TEST(AppendJsonStringTest, CopiesEverythingElse) {
  std::string plain;
  for (int c = 0x20; c < 0x100; ++c) {
    if (c != '"' && c != '\\') plain.push_back(static_cast<char>(c));
  }
  std::string out = "[";
  AppendJsonString(plain, &out);
  EXPECT_EQ(out, "[\"" + plain + "\"");
}

TEST(AppendJsonStringTest, EmptyStringIsTwoQuotes) {
  std::string out;
  AppendJsonString("", &out);
  EXPECT_EQ(out, "\"\"");
}

}  // namespace
}  // namespace dynvote
