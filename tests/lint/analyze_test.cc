// Unit tests for dynvote_lint's symbol pass: the tokenizer, the four
// symbol rules (each firing and suppressed, per the fixture pairs under
// fixtures/analyze/), and the DOT/JSON renderings of the lock graph.

#include "lint/lint.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/token.h"

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

int CountRule(const RunResult& result, const std::string& rule) {
  int n = 0;
  for (const Finding& f : result.findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

bool HasEdge(const LockGraph& graph, const std::string& from,
             const std::string& to) {
  for (const LockEdge& e : graph.edges) {
    if (e.from == from && e.to == to) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

std::vector<std::string> TokenTexts(const std::string& src) {
  std::vector<std::string> texts;
  for (const Token& t : Tokenize(src)) texts.push_back(t.text);
  return texts;
}

TEST(TokenizerTest, IdentifiersPunctuationAndLines) {
  std::vector<Token> toks = Tokenize("a::b->c();\nint x = 2;\n");
  ASSERT_GE(toks.size(), 8u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "::");
  EXPECT_EQ(toks[3].text, "->");
  EXPECT_EQ(toks[0].line, 1);
  bool saw_x = false;
  for (const Token& t : toks) {
    if (t.text == "x") {
      EXPECT_EQ(t.line, 2);
      saw_x = true;
    }
  }
  EXPECT_TRUE(saw_x);
}

TEST(TokenizerTest, RawStringsAreSingleTokens) {
  std::vector<Token> toks =
      Tokenize("auto s = R\"(not ) a \" closer)\"; int y;");
  std::vector<std::string> strings;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kString) strings.push_back(t.text);
  }
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0], "R\"(not ) a \" closer)\"");
  const std::vector<std::string> texts = TokenTexts(
      "auto s = R\"(not ) a \" closer)\"; int y;");
  EXPECT_NE(std::find(texts.begin(), texts.end(), "y"), texts.end());
}

TEST(TokenizerTest, CustomDelimiterRawStringSpansLines) {
  std::vector<Token> toks =
      Tokenize("auto s = R\"x(line one\n)\" fake\n)x\";\nint after;");
  int after_line = 0;
  for (const Token& t : toks) {
    if (t.text == "after") after_line = t.line;
  }
  EXPECT_EQ(after_line, 4);
}

TEST(TokenizerTest, CommentsAndPreprocessorAreSkipped) {
  const std::vector<std::string> texts = TokenTexts(
      "#include <map>\n// gone\n/* also\ngone */ kept\n#define A \\\n  B\n"
      "last");
  EXPECT_EQ(texts, (std::vector<std::string>{"kept", "last"}));
}

TEST(TokenizerTest, ShiftIsTwoCloseAngles) {
  const std::vector<std::string> texts = TokenTexts("map<int, set<int>> m;");
  int close = 0;
  for (const std::string& t : texts) {
    if (t == ">") ++close;
  }
  EXPECT_EQ(close, 2);
  EXPECT_EQ(std::count(texts.begin(), texts.end(), ">>"), 0);
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

TEST(AnalyzeLockOrderTest, InconsistentOrderIsACycle) {
  RunResult r =
      RunAnalyze({LoadFixture("analyze/src/util/lockorder_fire.cc")});
  EXPECT_FALSE(r.lock_graph.acyclic);
  EXPECT_EQ(CountRule(r, "lock-order"), 1);
  EXPECT_TRUE(HasEdge(r.lock_graph, "Alpha::a_", "Alpha::b_"));
  EXPECT_TRUE(HasEdge(r.lock_graph, "Alpha::b_", "Alpha::a_"));
  ASSERT_EQ(r.lock_graph.cycles.size(), 1u);
  EXPECT_NE(r.lock_graph.cycles[0].find("Alpha::a_"), std::string::npos);
}

TEST(AnalyzeLockOrderTest, SuppressedAcquisitionDropsTheEdge) {
  RunResult r =
      RunAnalyze({LoadFixture("analyze/src/util/lockorder_allow.cc")});
  EXPECT_TRUE(r.lock_graph.acyclic) << ToText(r);
  EXPECT_EQ(CountRule(r, "lock-order"), 0);
  EXPECT_TRUE(HasEdge(r.lock_graph, "Alpha::a_", "Alpha::b_"));
  EXPECT_FALSE(HasEdge(r.lock_graph, "Alpha::b_", "Alpha::a_"));
}

TEST(AnalyzeLockOrderTest, RequiresAnnotationSeedsHeldSet) {
  RunResult r =
      RunAnalyze({LoadFixture("analyze/src/util/lockorder_annotated.cc")});
  EXPECT_TRUE(r.lock_graph.acyclic) << ToText(r);
  EXPECT_TRUE(HasEdge(r.lock_graph, "Gamma::g_", "Gamma::h_"));
}

TEST(AnalyzeLockOrderTest, SequentialGuardsCreateNoEdges) {
  FileInput file{"src/util/seq.cc",
                 "class S {\n"
                 " public:\n"
                 "  void A() { MutexLock l(m_); }\n"
                 "  void B() { MutexLock l(m_); }\n"
                 " private:\n"
                 "  Mutex m_;\n"
                 "};\n"};
  RunResult r = RunAnalyze({file});
  EXPECT_TRUE(r.lock_graph.edges.empty());
  EXPECT_TRUE(r.lock_graph.acyclic);
  ASSERT_EQ(r.lock_graph.nodes.size(), 1u);
  EXPECT_EQ(r.lock_graph.nodes[0], "S::m_");
}

TEST(AnalyzeLockOrderTest, RecursiveAcquisitionIsASelfCycle) {
  FileInput file{"src/util/rec.cc",
                 "class R {\n"
                 "  void F() {\n"
                 "    MutexLock a(m_);\n"
                 "    MutexLock b(m_);\n"
                 "  }\n"
                 "  Mutex m_;\n"
                 "};\n"};
  RunResult r = RunAnalyze({file});
  EXPECT_FALSE(r.lock_graph.acyclic);
  EXPECT_EQ(CountRule(r, "lock-order"), 1);
}

// ---------------------------------------------------------------------------
// guarded-by
// ---------------------------------------------------------------------------

TEST(AnalyzeGuardedByTest, UnannotatedMutableMemberFires) {
  RunResult r = RunAnalyze({LoadFixture("analyze/src/obs/guardedby_fire.h")});
  EXPECT_EQ(CountRule(r, "guarded-by"), 1) << ToText(r);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_NE(r.findings[0].message.find("misses_"), std::string::npos);
}

TEST(AnalyzeGuardedByTest, ProofSuppressionIsClean) {
  RunResult r = RunAnalyze({LoadFixture("analyze/src/obs/guardedby_allow.h")});
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

TEST(AnalyzeGuardedByTest, OnlyThreadedDirsAreInScope) {
  // Same shape as the firing fixture, but core/ has no threads.
  FileInput file{"src/core/single.h",
                 "class C {\n  Mutex mutex_;\n  int unguarded_ = 0;\n};\n"};
  RunResult r = RunAnalyze({file});
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

TEST(AnalyzeGuardedByTest, MutexFreeClassesAreExempt) {
  FileInput file{"src/obs/plain.h",
                 "class P {\n  int counter_ = 0;\n};\n"};
  RunResult r = RunAnalyze({file});
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

// ---------------------------------------------------------------------------
// lock-hygiene
// ---------------------------------------------------------------------------

TEST(AnalyzeHygieneTest, ThrowStreamsLogAndSinkDispatchFire) {
  RunResult r = RunAnalyze({LoadFixture("analyze/src/util/hygiene_fire.cc")});
  EXPECT_EQ(CountRule(r, "lock-hygiene"), 4) << ToText(r);
  std::set<std::string> mentioned;
  for (const Finding& f : r.findings) {
    if (f.message.find("throw") != std::string::npos) {
      mentioned.insert("throw");
    }
    if (f.message.find("cerr") != std::string::npos) mentioned.insert("cerr");
    if (f.message.find("DYNVOTE_LOG") != std::string::npos) {
      mentioned.insert("log");
    }
    if (f.message.find("sink") != std::string::npos) mentioned.insert("sink");
  }
  EXPECT_EQ(mentioned.size(), 4u) << ToText(r);
}

TEST(AnalyzeHygieneTest, SuppressionsAndScopedWorkAreClean) {
  RunResult r = RunAnalyze({LoadFixture("analyze/src/util/hygiene_allow.cc")});
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

TEST(AnalyzeHygieneTest, LoggingOutsideTheGuardScopeIsClean) {
  FileInput file{"src/util/scoped.cc",
                 "class L {\n"
                 "  void F() {\n"
                 "    { MutexLock l(m_); touch(); }\n"
                 "    DYNVOTE_LOG(Info) << \"outside\";\n"
                 "  }\n"
                 "  void touch();\n"
                 "  Mutex m_;\n"
                 "};\n"};
  RunResult r = RunAnalyze({file});
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

// ---------------------------------------------------------------------------
// schema-fields
// ---------------------------------------------------------------------------

std::vector<FileInput> SchemaTree(const std::string& variant) {
  return {
      LoadFixture("analyze/" + variant + "/src/obs/trace_event.h"),
      LoadFixture("analyze/" + variant + "/src/obs/trace_sink.cc"),
      LoadFixture("analyze/" + variant + "/src/obs/binary_trace.cc"),
      LoadFixture("analyze/" + variant + "/docs/observability.md"),
  };
}

TEST(AnalyzeSchemaFieldsTest, DriftFiresOnEverySide) {
  RunResult r = RunAnalyze(SchemaTree("drift"));
  // orphan: not encoded + not decoded; ghost: no field + undocumented;
  // phantom: documented but never emitted.
  EXPECT_EQ(CountRule(r, "schema-fields"), 5) << ToText(r);
  std::set<std::string> sides;
  for (const Finding& f : r.findings) {
    if (f.message.find("orphan") != std::string::npos) sides.insert("struct");
    if (f.message.find("ghost") != std::string::npos) sides.insert("encoder");
    if (f.message.find("phantom") != std::string::npos) sides.insert("docs");
  }
  EXPECT_EQ(sides.size(), 3u) << ToText(r);
}

TEST(AnalyzeSchemaFieldsTest, ConsistentTreeIsCleanAndAliasesResolve) {
  // The clean tree exercises the alias map: latency_ms serializes as
  // lat_ms and type as ev.
  RunResult r = RunAnalyze(SchemaTree("clean"));
  EXPECT_TRUE(r.findings.empty()) << ToText(r);
}

TEST(AnalyzeSchemaFieldsTest, InactiveWithoutAllParticipants) {
  // The struct alone (or struct + encoder) must not demand the rest of
  // the tree be passed.
  RunResult r = RunAnalyze(
      {LoadFixture("analyze/drift/src/obs/trace_event.h"),
       LoadFixture("analyze/drift/src/obs/trace_sink.cc")});
  EXPECT_EQ(CountRule(r, "schema-fields"), 0) << ToText(r);
}

// ---------------------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------------------

TEST(AnalyzeOutputTest, DotExportIsByteStable) {
  RunResult r =
      RunAnalyze({LoadFixture("analyze/src/util/lockorder_annotated.cc")});
  const std::string expected =
      "digraph lock_order {\n"
      "  rankdir=LR;\n"
      "  node [shape=box];\n"
      "  \"Gamma::g_\" -> \"Gamma::h_\" "
      "[label=\"analyze/src/util/lockorder_annotated.cc:15\"];\n"
      "}\n";
  EXPECT_EQ(ToDot(r.lock_graph), expected);
}

TEST(AnalyzeOutputTest, JsonCarriesSchemaFindingsAndGraph) {
  RunResult r =
      RunAnalyze({LoadFixture("analyze/src/util/lockorder_fire.cc")});
  const std::string json = ToJson(r);
  EXPECT_NE(json.find("\"schema\": \"dynvote-lint-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"acyclic\": false"), std::string::npos);
  EXPECT_NE(json.find("\"cycles\": ["), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"lock-order\""), std::string::npos);
}

TEST(AnalyzeOutputTest, TextSummarizesTheGraph) {
  RunResult clean = RunAnalyze({FileInput{"src/core/ok.cc", "int x = 1;\n"}});
  const std::string text = ToText(clean);
  EXPECT_NE(text.find("0 finding(s) in 1 file(s) analyzed"),
            std::string::npos);
  EXPECT_NE(text.find("acyclic."), std::string::npos);
}

TEST(AnalyzeCatalogTest, RuleNamesAreUniqueAndComplete) {
  std::set<std::string> names;
  for (const RuleInfo& rule : Rules()) {
    EXPECT_TRUE(names.insert(rule.name).second)
        << "duplicate rule " << rule.name;
    EXPECT_FALSE(rule.summary.empty());
  }
  for (const char* expected :
       {"lock-order", "guarded-by", "lock-hygiene", "schema-fields"}) {
    EXPECT_EQ(names.count(expected), 1u) << "missing rule " << expected;
  }
}

}  // namespace
}  // namespace lint
}  // namespace dynvote
