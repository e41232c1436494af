// Seeded mutational fuzzing of the hostile-input readers: the
// counterexample parser (`check --replay`), the JSONL line parser and
// SummarizeTrace over JSONL and btrace (`trace-summary`). Seeds are the
// checked-in corpus and the trace of a short traced run; each case
// applies a few byte flips, truncations, span duplications and spliced
// JSON tokens to one seed. Every call must come back with a Status or a
// false/malformed count: never a crash, a hang or an out-of-bounds read
// (the sanitizer build runs this test under ASan/UBSan).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "check/counterexample.h"
#include "core/registry.h"
#include "model/replicated_experiment.h"
#include "obs/binary_trace.h"
#include "obs/trace_reader.h"
#include "util/rng.h"

#ifndef DYNVOTE_CHECK_CORPUS_DIR
#error "build must define DYNVOTE_CHECK_CORPUS_DIR"
#endif

namespace dynvote {
namespace {

constexpr int kCasesPerSeedFamily = 3000;
/// A btrace seed is tens of kilobytes, so fewer cases.
constexpr int kBinaryCases = 1000;

std::vector<std::string> CorpusTexts() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(DYNVOTE_CHECK_CORPUS_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> texts;
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    texts.push_back(buffer.str());
  }
  return texts;
}

/// The btrace of one short traced replication of configuration B.
std::string TracedRunBtrace() {
  ExperimentOptions options;
  options.warmup = Days(10);
  options.num_batches = 2;
  options.batch_length = Days(60);
  options.seed = 7;
  ReplicationOptions reps;
  reps.replications = 1;
  reps.jobs = 1;
  reps.collect_traces = true;
  auto results =
      RunReplicatedPaperExperiment('B', PaperProtocolNames(), options, reps);
  EXPECT_TRUE(results.ok()) << results.status();
  if (!results.ok() || results->traces.empty()) return "";
  return BinaryTraceHeader(options.seed) + results->traces.front();
}

/// The header line plus the first line of each event type in `jsonl`.
std::string OneLinePerEventType(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::string line;
  std::string out;
  std::map<std::string, std::string> fields;
  std::map<std::string, bool> seen;
  while (std::getline(in, line)) {
    if (!ParseTraceLine(line, &fields)) continue;
    const std::string type = fields.count("ev") ? fields["ev"] : "header";
    if (seen[type]) continue;
    seen[type] = true;
    out += line;
    out += '\n';
  }
  return out;
}

/// Applies one to three mutations to `text`.
std::string Mutate(Rng* rng, std::string text) {
  static const std::vector<std::string> kTokens = {
      "\"", "\\", "\\u", "\\ud83d", "\\udc00", "\\u00", "{", "}",
      "[", "]", ",", ":", "\n", "\\t", "-", "1e999", "\xff"};
  const int mutations = 1 + static_cast<int>(rng->NextBounded(3));
  for (int m = 0; m < mutations; ++m) {
    const std::size_t size = text.size();
    const auto at = [&](std::size_t bound) {
      return bound == 0 ? std::size_t{0}
                        : static_cast<std::size_t>(rng->NextBounded(bound));
    };
    switch (rng->NextBounded(4)) {
      case 0:  // byte flip
        if (size != 0) text[at(size)] = static_cast<char>(rng->Next());
        break;
      case 1:  // truncation
        text.resize(at(size + 1));
        break;
      case 2: {  // span duplication
        const std::size_t from = at(size + 1);
        const std::size_t length =
            at(std::min<std::size_t>(size - from, 64) + 1);
        text.insert(at(size + 1), text.substr(from, length));
        break;
      }
      default:  // spliced token
        text.insert(at(size + 1), kTokens[at(kTokens.size())]);
        break;
    }
  }
  return text;
}

void SummarizeNeverCrashes(const std::string& text) {
  std::istringstream in(text);
  const TraceSummary summary = SummarizeTrace(in);
  ASSERT_LE(summary.malformed_lines, summary.total_lines);
}

TEST(ParserFuzzTest, SeedsParse) {
  for (const std::string& text : CorpusTexts()) {
    EXPECT_TRUE(check::ParseCounterExampleJson(text).ok()) << text;
  }
  const std::string btrace = TracedRunBtrace();
  std::istringstream in(btrace);
  std::ostringstream jsonl;
  ASSERT_TRUE(ConvertBinaryTraceToJsonl(in, jsonl).ok());
  const std::string lines = OneLinePerEventType(jsonl.str());
  // Header, sim, net, quorum and access records at least.
  EXPECT_GE(std::count(lines.begin(), lines.end(), '\n'), 5) << lines;
}

TEST(ParserFuzzTest, MutatedCounterExamplesReturnAStatus) {
  const std::vector<std::string> seeds = CorpusTexts();
  ASSERT_FALSE(seeds.empty());
  Rng rng(0xF022C0DE);
  int accepted = 0;
  for (int i = 0; i < kCasesPerSeedFamily; ++i) {
    const std::string text =
        Mutate(&rng, seeds[rng.NextBounded(seeds.size())]);
    auto parsed = check::ParseCounterExampleJson(text);
    if (parsed.ok()) ++accepted;
  }
  // Some mutations (inside a detail string, say) leave a valid file.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCasesPerSeedFamily);
}

TEST(ParserFuzzTest, MutatedJsonlLinesParseOrFail) {
  std::istringstream in(TracedRunBtrace());
  std::ostringstream jsonl;
  ASSERT_TRUE(ConvertBinaryTraceToJsonl(in, jsonl).ok());
  const std::string seed = OneLinePerEventType(jsonl.str());
  ASSERT_FALSE(seed.empty());
  Rng rng(0x7AACE);
  std::map<std::string, std::string> fields;
  for (int i = 0; i < kCasesPerSeedFamily; ++i) {
    const std::string text = Mutate(&rng, seed);
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) (void)ParseTraceLine(line, &fields);
    SummarizeNeverCrashes(text);
  }
}

TEST(ParserFuzzTest, MutatedBinaryTracesSummarize) {
  const std::string seed = TracedRunBtrace();
  ASSERT_FALSE(seed.empty());
  Rng rng(0xB7ACE);
  for (int i = 0; i < kBinaryCases; ++i) {
    SummarizeNeverCrashes(Mutate(&rng, seed));
  }
}

}  // namespace
}  // namespace dynvote
