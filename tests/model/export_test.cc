#include "model/export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

namespace dynvote {
namespace {

LabeledResult SampleRow() {
  LabeledResult row;
  row.label = std::string("B");
  row.result.name = "ODV";
  row.result.unavailability = 0.000808;
  row.result.stats.ci95_halfwidth = 0.000133;
  row.result.mean_unavailable_duration = 0.066;
  row.result.num_unavailable_periods = 2671;
  row.result.accesses_attempted = 219000;
  row.result.accesses_granted = 218800;
  row.result.messages.Add(MessageKind::kProbe, 100);
  row.result.messages.Add(MessageKind::kFileCopy, 7);
  row.result.dual_majority_instants = 0;
  row.result.measured_time = 219000.0;
  return row;
}

TEST(ExportTest, CsvHasHeaderAndRow) {
  std::string csv = ResultsToCsv({SampleRow()});
  EXPECT_NE(csv.find("label,policy,unavailability"), std::string::npos);
  EXPECT_NE(csv.find("B,ODV,0.000808"), std::string::npos);
  EXPECT_NE(csv.find(",2671,"), std::string::npos);
  // Exactly two lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(ExportTest, CsvEmptyInput) {
  std::string csv = ResultsToCsv({});
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1);  // header only
}

TEST(ExportTest, CsvQuotesFieldsThatHoldSeparators) {
  LabeledResult multi = SampleRow();
  multi.label = "1,3,5";
  LabeledResult quoted = SampleRow();
  quoted.label = "cs\"vax";
  const std::string csv = ResultsToCsv({multi, quoted, SampleRow()});
  // RFC 4180: a field holding a comma or a quote is quoted, inner quotes
  // doubled; a plain label keeps its bytes.
  EXPECT_NE(csv.find("\n\"1,3,5\",ODV,0.000808,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\n\"cs\"\"vax\",ODV,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\nB,ODV,0.000808,"), std::string::npos) << csv;
  // Every row has the header's 13 fields once quoted commas are skipped.
  std::size_t line_start = 0;
  while (line_start < csv.size()) {
    const std::size_t line_end = csv.find('\n', line_start);
    int fields = 1;
    bool in_quotes = false;
    for (std::size_t i = line_start; i < line_end; ++i) {
      if (csv[i] == '"') in_quotes = !in_quotes;
      if (csv[i] == ',' && !in_quotes) ++fields;
    }
    EXPECT_EQ(fields, 13) << csv.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
  }
}

TEST(ExportTest, CsvKeepsNineSignificantDigits) {
  LabeledResult row = SampleRow();
  row.result.unavailability = 1.0 / 3.0;
  row.result.measured_time = 1e-7;
  const std::string csv = ResultsToCsv({row});
  EXPECT_NE(csv.find("B,ODV,0.333333333,"), std::string::npos) << csv;
  EXPECT_NE(csv.find(",1e-07\n"), std::string::npos) << csv;
}

TEST(ExportTest, WriteFileRoundTrip) {
  std::string path = ::testing::TempDir() + "/dynvote_export_test.csv";
  std::string contents = ResultsToCsv({SampleRow()});
  ASSERT_TRUE(WriteFile(path, contents).ok());
  std::ifstream in(path);
  std::string read_back((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(read_back, contents);
  std::remove(path.c_str());
}

TEST(ExportTest, WriteFileBadPathFails) {
  EXPECT_FALSE(WriteFile("/nonexistent-dir/x/y.csv", "data").ok());
}

}  // namespace
}  // namespace dynvote
