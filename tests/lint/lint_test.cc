// Unit tests for the dynvote_lint rule engine. Each rule is exercised
// both firing (fixture files under fixtures/) and suppressed, per the
// suppression syntax in docs/static_analysis.md.

#include "lint/lint.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dynvote {
namespace lint {
namespace {

/// Loads fixtures/<rel>, returning it under the virtual path <rel> so
/// path classification matches a real checkout layout.
FileInput LoadFixture(const std::string& rel) {
  const std::string path = std::string(DYNVOTE_LINT_FIXTURE_DIR) + "/" + rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return {rel, buffer.str()};
}

std::vector<std::string> RuleNames(const RunResult& result) {
  std::vector<std::string> names;
  names.reserve(result.findings.size());
  for (const Finding& f : result.findings) names.push_back(f.rule);
  return names;
}

int CountRule(const RunResult& result, const std::string& rule) {
  const std::vector<std::string> names = RuleNames(result);
  return static_cast<int>(std::count(names.begin(), names.end(), rule));
}

TEST(LintNondeterminismTest, FiresOnEveryBannedSource) {
  RunResult r = RunLint({LoadFixture("src/core/nondet_fire.cc")}, {});
  EXPECT_EQ(CountRule(r, "nondeterminism"), 3);  // rand, random_device, time
  for (const Finding& f : r.findings) {
    EXPECT_EQ(f.file, "src/core/nondet_fire.cc");
    EXPECT_GT(f.line, 0);
  }
}

TEST(LintNondeterminismTest, SuppressionsAndNonCodeMentionsAreClean) {
  RunResult r = RunLint({LoadFixture("src/core/nondet_allow.cc")}, {});
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

TEST(LintNondeterminismTest, OutOfScopeDirectoriesAreIgnored) {
  // tests/ and examples/ are outside the lint's jurisdiction.
  FileInput file{"tests/core/foo_test.cc", "int x = std::rand();\n"};
  RunResult r = RunLint({file}, {});
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintWallClockTest, FiresInBenchButAllowsSteadyClock) {
  RunResult r = RunLint({LoadFixture("bench/wallclock_fire.cc")}, {});
  EXPECT_EQ(CountRule(r, "wall-clock"), 1);
}

TEST(LintWallClockTest, ObsMayReadTheWallClock) {
  FileInput file{"src/obs/stamp.cc",
                 "auto t = std::chrono::system_clock::now();\n"};
  RunResult r = RunLint({file}, {});
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintUnorderedTest, FiresInResultAffectingDirs) {
  RunResult r = RunLint({LoadFixture("src/sim/unordered_fire.h")}, {});
  EXPECT_EQ(CountRule(r, "unordered-container"), 1);
}

TEST(LintUnorderedTest, SuppressiblePerLineAndPreviousLine) {
  FileInput file{"src/sim/audited.h",
                 "// dynvote-lint: allow(unordered-container)\n"
                 "std::unordered_set<int> a;\n"
                 "std::unordered_set<int> b;  "
                 "// dynvote-lint: allow(unordered-container)\n"};
  RunResult r = RunLint({file}, {});
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

TEST(LintUnorderedTest, FineOutsideResultAffectingDirs) {
  FileInput file{"src/model/cache.cc", "std::unordered_map<int, int> m;\n"};
  RunResult r = RunLint({file}, {});
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintIostreamTest, FiresInHeadersOnly) {
  RunResult r = RunLint({LoadFixture("src/util/iostream_fire.h"),
                         FileInput{"src/util/fine.cc",
                                   "#include <iostream>\n"}},
                        {});
  ASSERT_EQ(CountRule(r, "iostream-header"), 1);
  EXPECT_EQ(r.findings[0].file, "src/util/iostream_fire.h");
  EXPECT_TRUE(r.findings[0].fixable);
}

TEST(LintIostreamTest, FixRewritesToIosfwd) {
  FileInput fixture = LoadFixture("src/util/iostream_fire.h");
  Options options;
  options.apply_fixes = true;
  RunResult r = RunLint({fixture}, options);
  EXPECT_EQ(r.fixes_applied, 1);
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
  ASSERT_EQ(r.fixes.count(fixture.path), 1u);
  const std::string& fixed = r.fixes.at(fixture.path);
  EXPECT_NE(fixed.find("#include <iosfwd>"), std::string::npos);
  EXPECT_EQ(fixed.find("<iostream>"), std::string::npos);
  // Everything else survives byte for byte.
  EXPECT_NE(fixed.find("void PrintTo(std::ostream& os"), std::string::npos);
}

TEST(LintIostreamTest, SuppressionBeatsFix) {
  FileInput file{"src/util/noisy.h",
                 "#include <iostream>  "
                 "// dynvote-lint: allow(iostream-header)\n"};
  Options options;
  options.apply_fixes = true;
  RunResult r = RunLint({file}, options);
  EXPECT_EQ(r.fixes_applied, 0);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(r.fixes.empty());
}

TEST(LintRawMutexTest, FiresOutsideAnnotationsHeader) {
  RunResult r = RunLint({LoadFixture("src/model/raw_mutex_fire.cc")}, {});
  EXPECT_EQ(CountRule(r, "raw-mutex"), 2);  // declaration + lock_guard
}

TEST(LintRawMutexTest, AnnotationsHeaderIsExempt) {
  FileInput file{"src/util/thread_annotations.h",
                 "std::mutex mu_;\nstd::condition_variable_any cv_;\n"};
  RunResult r = RunLint({file}, {});
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintLayeringTest, FiresUpwardAndOnUnknownDirs) {
  RunResult r = RunLint({LoadFixture("src/core/layering_fire.cc")}, {});
  EXPECT_EQ(CountRule(r, "layering"), 2);
  // The util include on line 5 is legal and must not appear.
  for (const Finding& f : r.findings) {
    EXPECT_NE(f.line, 5) << f.message;
  }
}

TEST(LintLayeringTest, Suppressible) {
  FileInput file{"src/core/experimental.cc",
                 "#include \"sim/simulator.h\"  "
                 "// dynvote-lint: allow(layering)\n"};
  RunResult r = RunLint({file}, {});
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

TEST(LintLayeringTest, DownwardIncludesAreClean) {
  FileInput file{"src/model/engine.cc",
                 "#include \"core/quorum.h\"\n#include \"stats/table.h\"\n"};
  RunResult r = RunLint({file}, {});
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

TEST(LintSchemaTest, CrossChecksBothDirections) {
  RunResult r = RunLint({LoadFixture("src/core/schema_fire.h"),
                         LoadFixture("docs/schema.md")},
                        {});
  ASSERT_EQ(CountRule(r, "schema-docs"), 2) << ToText(r);
  std::set<std::string> mentioned;
  for (const Finding& f : r.findings) mentioned.insert(f.message);
  bool phantom = false;
  bool stale = false;
  for (const std::string& m : mentioned) {
    phantom = phantom || m.find("dynvote-phantom-v3") != std::string::npos;
    stale = stale || m.find("dynvote-stale-v9") != std::string::npos;
  }
  EXPECT_TRUE(phantom) << "undocumented source schema not reported";
  EXPECT_TRUE(stale) << "stale doc schema not reported";
}

TEST(LintSchemaTest, SkippedWhenDocsAreNotScanned) {
  RunResult r = RunLint({LoadFixture("src/core/schema_fire.h")}, {});
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintSchemaTest, Suppressible) {
  FileInput code{"src/core/wip.h",
                 "// dynvote-lint: allow(schema-docs)\n"
                 "constexpr char kWip[] = \"dynvote-wip-v1\";\n"};
  FileInput doc{"docs/real.md", "documents dynvote-real-v1\n"};
  FileInput real{"src/core/real.h",
                 "constexpr char kReal[] = \"dynvote-real-v1\";\n"};
  RunResult r = RunLint({code, doc, real}, {});
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

TEST(LintOutputTest, JsonCarriesSchemaAndFindings) {
  RunResult r = RunLint({LoadFixture("src/sim/unordered_fire.h")}, {});
  const std::string json = ToJson(r);
  EXPECT_NE(json.find("\"schema\": \"dynvote-lint-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"unordered-container\""),
            std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
}

TEST(LintOutputTest, TextSummarizesCounts) {
  RunResult clean = RunLint({FileInput{"src/core/ok.cc", "int x = 1;\n"}}, {});
  EXPECT_NE(ToText(clean).find("0 finding(s) in 1 file(s)"),
            std::string::npos);
}

TEST(LintCatalogTest, RuleNamesAreUniqueAndComplete) {
  std::set<std::string> names;
  for (const RuleInfo& rule : Rules()) {
    EXPECT_TRUE(names.insert(rule.name).second)
        << "duplicate rule " << rule.name;
    EXPECT_FALSE(rule.summary.empty());
  }
  for (const char* expected :
       {"nondeterminism", "wall-clock", "unordered-container",
        "iostream-header", "raw-mutex", "layering", "schema-docs"}) {
    EXPECT_EQ(names.count(expected), 1u) << "missing rule " << expected;
  }
}

TEST(LintEngineTest, BlockCommentsSpanningLinesDoNotFire) {
  FileInput file{"src/core/commented.cc",
                 "/* std::rand()\n   std::random_device\n*/\nint x = 0;\n"};
  RunResult r = RunLint({file}, {});
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

TEST(LintEngineTest, MultipleRulesInOneAllowList) {
  FileInput file{"src/core/multi.cc",
                 "#include \"sim/simulator.h\"  "
                 "// dynvote-lint: allow(layering, nondeterminism)\n"};
  RunResult r = RunLint({file}, {});
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

TEST(LintEngineTest, RawStringsAndContinuationsAreNotCode) {
  // Banned tokens inside raw string bodies (default and custom
  // delimiters, multi-line), backslash-continued // comments and
  // backslash-continued strings must not fire — including a #include
  // spelled inside a raw string.
  RunResult r = RunLint({LoadFixture("src/core/rawscan_allow.cc")}, {});
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

TEST(LintEngineTest, LineContinuationExtendsTheComment) {
  FileInput file{"src/core/cont.cc",
                 "// a comment that continues \\\nstd::rand();\nint x;\n"};
  RunResult r = RunLint({file}, {});
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

TEST(LintEngineTest, RawStringEndsOnItsClosingDelimiter) {
  // Code after the raw literal closes is scanned again.
  FileInput file{"src/core/raw_end.cc",
                 "const char* s = R\"(std::rand())\"; int y = std::rand();\n"};
  RunResult r = RunLint({file}, {});
  EXPECT_EQ(CountRule(r, "nondeterminism"), 1);
}

}  // namespace
}  // namespace lint
}  // namespace dynvote
