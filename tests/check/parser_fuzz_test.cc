// Seeded mutational fuzzing of the hostile-input readers: the
// counterexample parser (`check --replay`), the JSONL line parser and
// SummarizeTrace over JSONL and btrace (`trace-summary`), the `.net`
// parser (`--network`) and the `.dvs` scenario parser (`scenario`).
// Seeds are the checked-in corpus, the trace of a short traced run and
// the shipped examples; each case applies a few byte flips, truncations,
// span duplications and spliced tokens to one seed. Every call must come
// back with a Status or a false/malformed count: never a crash, a hang or
// an out-of-bounds read (the sanitizer build runs this test under
// ASan/UBSan).

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
#include "kv/scenario.h"
#include "model/config_parser.h"
#include "model/replicated_experiment.h"
#include "model/sample_path.h"
#include "model/site_profile.h"
#include "obs/binary_trace.h"
#include "obs/trace_reader.h"
#include "util/rng.h"

#ifndef DYNVOTE_CHECK_CORPUS_DIR
#error "build must define DYNVOTE_CHECK_CORPUS_DIR"
#endif
#ifndef DYNVOTE_EXAMPLES_DIR
#error "build must define DYNVOTE_EXAMPLES_DIR"
#endif

namespace dynvote {
namespace {

constexpr int kCasesPerSeedFamily = 3000;
/// A btrace seed is tens of kilobytes, so fewer cases.
constexpr int kBinaryCases = 1000;

/// The `extension` files of `dir`, in name order.
std::vector<std::string> FileTexts(const std::filesystem::path& dir,
                                   const std::string& extension) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == extension) files.push_back(entry.path());
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

std::vector<std::string> CorpusTexts() {
  return FileTexts(DYNVOTE_CHECK_CORPUS_DIR, ".json");
}

/// examples/scenarios/*.dvs.
std::vector<std::string> ScenarioTexts() {
  return FileTexts(std::filesystem::path(DYNVOTE_EXAMPLES_DIR) / "scenarios",
                   ".dvs");
}

/// examples/networks/paper.net.
std::string PaperNetText() {
  return FileTexts(std::filesystem::path(DYNVOTE_EXAMPLES_DIR) / "networks",
                   ".net")
      .front();
}

/// The topologies the shipped scenarios name: three sites A, B, C on one
/// segment, and the paper's network.
std::vector<std::shared_ptr<const Topology>> ScenarioTopologies() {
  auto builder = Topology::Builder();
  const SegmentId lan = builder.AddSegment("lan");
  for (const char* name : {"A", "B", "C"}) builder.AddSite(name, lan);
  auto three = builder.Build();
  auto paper = MakePaperNetwork();
  EXPECT_TRUE(three.ok() && paper.ok());
  return {three.MoveValue(), paper->topology};
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
  EXPECT_TRUE(ParseNetworkConfig(PaperNetText()).ok());
  const std::vector<std::string> scenarios = ScenarioTexts();
  ASSERT_EQ(scenarios.size(), 2u);
  const auto topologies = ScenarioTopologies();
  for (const std::string& text : scenarios) {
    // Each shipped scenario names the sites of one of the topologies.
    int parsed = 0;
    for (const auto& topology : topologies) {
      parsed += Scenario::Parse(topology, text).ok() ? 1 : 0;
    }
    EXPECT_EQ(parsed, 1) << text;
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

TEST(ParserFuzzTest, MutatedNetworkConfigsReturnAStatus) {
  const std::string seed = PaperNetText();
  Rng rng(0x4E7C0F16);
  int accepted = 0;
  for (int i = 0; i < kCasesPerSeedFamily; ++i) {
    auto parsed = ParseNetworkConfig(Mutate(&rng, seed));
    if (!parsed.ok()) continue;
    ++accepted;
    // What parses reaches the sample path's validation, as in simulate.
    ExperimentSpec spec;
    spec.topology = parsed->topology;
    spec.profiles = parsed->profiles;
    spec.repeater_profiles = parsed->repeater_profiles;
    (void)SamplePath::Validate(spec, SiteSet{0});
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCasesPerSeedFamily);
}

TEST(ParserFuzzTest, MutatedScenariosReturnAStatus) {
  const std::vector<std::string> seeds = ScenarioTexts();
  ASSERT_FALSE(seeds.empty());
  const auto topologies = ScenarioTopologies();
  Rng rng(0x5CE4A210);
  int accepted = 0;
  for (int i = 0; i < kCasesPerSeedFamily; ++i) {
    const std::string text =
        Mutate(&rng, seeds[rng.NextBounded(seeds.size())]);
    for (const auto& topology : topologies) {
      if (Scenario::Parse(topology, text).ok()) ++accepted;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCasesPerSeedFamily);
}

}  // namespace
}  // namespace dynvote
