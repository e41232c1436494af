// The dynvote-counterexample-v1 schema: JSON round-trips losslessly,
// malformed input is rejected with a clean status, and replay validates
// the recorded claim against a rebuilt harness.

#include <gtest/gtest.h>

#include <utility>

#include "check/counterexample.h"

namespace dynvote {
namespace check {
namespace {

CounterExample SampleCounterExample() {
  CounterExample ce;
  ce.protocol = "TDV";
  ce.topology = "pairs";
  ce.placement = SiteSet::FirstN(4);
  ce.policy.strict = true;
  ce.policy.max_granted_groups = 1;
  ce.policy.oracle = DifferentialOracle::kNone;
  ce.schedule = {{ActionKind::kToggleSite, 0},
                 {ActionKind::kToggleSite, 1},
                 {ActionKind::kToggleRepeater, 0},
                 {ActionKind::kToggleSite, 0}};
  ce.violation.invariant = "mutual_exclusion";
  ce.violation.step = 3;
  ce.violation.detail = "2 groups granted (threshold 1)";
  return ce;
}

TEST(CounterExampleTest, JsonRoundTripsLosslessly) {
  CounterExample ce = SampleCounterExample();
  std::string json = CounterExampleToJson(ce);
  EXPECT_NE(json.find(kCounterExampleSchema), std::string::npos);

  auto parsed = ParseCounterExampleJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->protocol, ce.protocol);
  EXPECT_EQ(parsed->topology, ce.topology);
  EXPECT_EQ(parsed->placement.mask(), ce.placement.mask());
  EXPECT_EQ(parsed->policy.strict, ce.policy.strict);
  EXPECT_EQ(parsed->policy.max_granted_groups, ce.policy.max_granted_groups);
  EXPECT_EQ(parsed->policy.oracle, ce.policy.oracle);
  EXPECT_EQ(parsed->schedule, ce.schedule);
  EXPECT_EQ(parsed->violation.invariant, ce.violation.invariant);
  EXPECT_EQ(parsed->violation.step, ce.violation.step);
  EXPECT_EQ(parsed->violation.detail, ce.violation.detail);
}

TEST(CounterExampleTest, DetailsWithQuotesSurviveTheRoundTrip) {
  CounterExample ce = SampleCounterExample();
  ce.violation.detail = "read observed \"v3\", expected \"v4\"";
  auto parsed = ParseCounterExampleJson(CounterExampleToJson(ce));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->violation.detail, ce.violation.detail);
}

TEST(CounterExampleTest, RejectsNonJsonAndWrongSchema) {
  EXPECT_FALSE(ParseCounterExampleJson("").ok());
  EXPECT_FALSE(ParseCounterExampleJson("not json at all").ok());
  CounterExample ce = SampleCounterExample();
  std::string json = CounterExampleToJson(ce);
  auto corrupted = json;
  std::size_t at = corrupted.find("counterexample-v1");
  corrupted.replace(at, 17, "counterexample-v9");
  EXPECT_FALSE(ParseCounterExampleJson(corrupted).ok());
}

TEST(CounterExampleTest, RejectsMissingAndMalformedFields) {
  CounterExample ce = SampleCounterExample();
  std::string json = CounterExampleToJson(ce);

  auto drop = [&json](const std::string& key) {
    std::string out;
    for (std::size_t pos = 0; pos < json.size();) {
      std::size_t eol = json.find('\n', pos);
      if (eol == std::string::npos) eol = json.size();
      std::string line = json.substr(pos, eol - pos);
      if (line.find("\"" + key + "\"") == std::string::npos) {
        out += line;
        out.push_back('\n');
      }
      pos = eol + 1;
    }
    return out;
  };
  for (const char* key :
       {"schema", "protocol", "topology", "placement", "strict",
        "max_granted_groups", "oracle", "invariant", "step", "schedule"}) {
    EXPECT_FALSE(ParseCounterExampleJson(drop(key)).ok())
        << "missing '" << key << "' must be rejected";
  }

  auto replaced = [&json](const std::string& from, const std::string& to) {
    std::string out = json;
    std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    out.replace(at, from.size(), to);
    return out;
  };
  EXPECT_FALSE(
      ParseCounterExampleJson(replaced("[0,1,2,3]", "\"zero\"")).ok());
  EXPECT_FALSE(ParseCounterExampleJson(replaced("[0,1,2,3]", "[]")).ok());
  EXPECT_FALSE(ParseCounterExampleJson(replaced("\"step\": 3", "\"step\": x"))
                   .ok());
  // Numbers must use up their whole field: "0x" is not step 0.
  for (const auto& [from, to] :
       {std::pair{"\"step\": 3", "\"step\": 0x"},
        std::pair{"\"step\": 3", "\"step\": \"0x\""},
        std::pair{"\"max_granted_groups\": 1", "\"max_granted_groups\": 1x"},
        std::pair{"[0,1,2,3]", "[0,1x,2,3]"}}) {
    auto parsed = ParseCounterExampleJson(replaced(from, to));
    EXPECT_FALSE(parsed.ok()) << to;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status();
  }
  EXPECT_FALSE(
      ParseCounterExampleJson(replaced("\"none\"", "\"psychic\"")).ok());
  EXPECT_FALSE(ParseCounterExampleJson(
                   replaced("toggle_repeater:0", "warp_core:0"))
                   .ok());
}

TEST(CounterExampleTest, RejectsGarbageAndTruncatedDocuments) {
  // Every rejection must be a clean InvalidArgument — never a crash or
  // an exception escaping — whatever bytes the file held.
  const std::string json = CounterExampleToJson(SampleCounterExample());
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{1}, json.size() / 4, json.size() / 2,
        json.size() - 2}) {
    auto parsed = ParseCounterExampleJson(json.substr(0, keep));
    EXPECT_FALSE(parsed.ok()) << "truncated at " << keep;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status();
  }
  for (const char* garbage :
       {"{", "{}", "[]", "{\"schema\":}", "\x01\x02\xff binary",
        "{\"schema\": \"dynvote-counterexample-v1\"}",
        "{\"schema\": \"dynvote-counterexample-v1\", \"schedule\": \"\"}"}) {
    auto parsed = ParseCounterExampleJson(garbage);
    EXPECT_FALSE(parsed.ok()) << garbage;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status();
  }
}

TEST(CounterExampleTest, RejectsStepsOutsideTheSchedule) {
  const std::string json = CounterExampleToJson(SampleCounterExample());
  auto with_step = [&json](const std::string& step) {
    std::string out = json;
    std::size_t at = out.find("\"step\": 3");
    EXPECT_NE(at, std::string::npos);
    out.replace(at, 9, "\"step\": " + step);
    return out;
  };
  EXPECT_TRUE(ParseCounterExampleJson(with_step("3")).ok());
  for (const char* step : {"-1", "4", "100"}) {
    auto parsed = ParseCounterExampleJson(with_step(step));
    EXPECT_FALSE(parsed.ok()) << "step " << step;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status();
  }
}

TEST(CounterExampleTest, RejectsOutOfRangePlacementSites) {
  const std::string json = CounterExampleToJson(SampleCounterExample());
  auto with_placement = [&json](const std::string& placement) {
    std::string out = json;
    std::size_t at = out.find("[0,1,2,3]");
    EXPECT_NE(at, std::string::npos);
    out.replace(at, 9, placement);
    return out;
  };
  // SiteSet would silently drop these; the parser must reject instead.
  for (const char* placement : {"[-1]", "[0,1,99]", "[64]"}) {
    auto parsed = ParseCounterExampleJson(with_placement(placement));
    EXPECT_FALSE(parsed.ok()) << placement;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status();
  }
}

TEST(CounterExampleTest, ReplayRejectsNonReproducingRecords) {
  // A syntactically valid record whose schedule never violates anything.
  CounterExample ce = SampleCounterExample();
  ce.protocol = "ODV";
  ce.schedule = {{ActionKind::kWrite, -1}};
  ce.violation.step = 0;
  Status st = ReplayCounterExample(ce);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInternal()) << st;
}

TEST(CounterExampleTest, ReplayRejectsUnknownTopology) {
  CounterExample ce = SampleCounterExample();
  ce.topology = "moebius";
  EXPECT_FALSE(ReplayCounterExample(ce).ok());
}

}  // namespace
}  // namespace check
}  // namespace dynvote
