// The check engine itself: the find -> shrink -> replay pipeline on the
// weakened-invariant hook, shrinker minimality, differential-oracle
// wiring, swarm determinism, and the memoization bookkeeping the CLI
// reports.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "check/counterexample.h"
#include "check/shrink.h"

namespace dynvote {
namespace check {
namespace {

TEST(CheckEngineTest, WeakenedInvariantYieldsMinimalReplayableRepro) {
  CheckOptions options;
  options.protocol = "ODV";
  options.topology = "single3";
  options.depth = 4;
  options.policy.max_granted_groups = 0;  // the test hook: any grant trips

  auto report = RunCheck(options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->counterexample.has_value());
  const CounterExample& ce = *report->counterexample;
  EXPECT_EQ(ce.violation.invariant, "mutual_exclusion");
  // All copies start available, so a single action suffices — the shrunk
  // schedule must be exactly that minimal.
  EXPECT_EQ(ce.schedule.size(), 1u);
  EXPECT_EQ(ce.violation.step, 0);

  EXPECT_TRUE(ReplayCounterExample(ce).ok());

  // And the replay is sensitive to the recorded claim: a different
  // invariant name must not be accepted.
  CounterExample tampered = ce;
  tampered.violation.invariant = "one_copy_serialisability";
  EXPECT_FALSE(ReplayCounterExample(tampered).ok());
}

TEST(CheckEngineTest, SwarmFindsAndShrinksWeakenedInvariant) {
  CheckOptions options;
  options.protocol = "LDV";
  options.topology = "pairs";
  options.mode = CheckMode::kSwarm;
  options.swarm_schedules = 8;
  options.swarm_depth = 10;
  options.seed = 42;
  options.policy.max_granted_groups = 0;

  auto report = RunCheck(options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->counterexample.has_value());
  EXPECT_EQ(report->counterexample->schedule.size(), 1u);
  EXPECT_TRUE(ReplayCounterExample(*report->counterexample).ok());
}

TEST(CheckEngineTest, SwarmIsDeterministicPerSeed) {
  CheckOptions options;
  options.protocol = "ODV";
  options.topology = "pairs";
  options.mode = CheckMode::kSwarm;
  options.swarm_schedules = 16;
  options.swarm_depth = 12;
  options.seed = 7;

  auto a = RunCheck(options);
  auto b = RunCheck(options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->transitions, b->transitions);
  EXPECT_EQ(a->commits, b->commits);
  EXPECT_EQ(a->reads_checked, b->reads_checked);
  EXPECT_EQ(a->counterexample.has_value(), b->counterexample.has_value());

  options.seed = 8;
  auto c = RunCheck(options);
  ASSERT_TRUE(c.ok());
  // Different seed, different schedules: the work totals differ (checked
  // to hold for these constants).
  EXPECT_TRUE(a->commits != c->commits ||
              a->reads_checked != c->reads_checked);
}

TEST(CheckEngineTest, SwarmRejectsEmptyAndNegativeSizes) {
  // A negative depth used to reach vector::reserve (std::length_error),
  // and zero or negative schedules reported a clean run of nothing.
  for (const auto& [schedules, depth] :
       {std::pair{0, 12}, std::pair{-5, 12}, std::pair{16, 0},
        std::pair{16, -3}}) {
    CheckOptions options;
    options.protocol = "ODV";
    options.topology = "single2";
    options.mode = CheckMode::kSwarm;
    options.swarm_schedules = schedules;
    options.swarm_depth = depth;
    auto report = RunCheck(options);
    ASSERT_FALSE(report.ok()) << schedules << " x " << depth;
    EXPECT_TRUE(report.status().IsInvalidArgument()) << report.status();
  }
}

TEST(CheckEngineTest, MemoizationPrunesWithoutChangingTheVerdict) {
  CheckOptions options;
  options.protocol = "DV";
  options.topology = "single3";
  options.depth = 5;

  auto memoized = RunCheck(options);
  options.memoize = false;
  auto unpruned = RunCheck(options);
  ASSERT_TRUE(memoized.ok() && unpruned.ok());
  EXPECT_TRUE(memoized->memoized);
  EXPECT_FALSE(unpruned->memoized);
  EXPECT_FALSE(memoized->counterexample.has_value());
  EXPECT_FALSE(unpruned->counterexample.has_value());
  // Merging must strictly reduce the explored frontier...
  EXPECT_LT(memoized->states_visited, unpruned->states_visited);
  EXPECT_LT(memoized->transitions, unpruned->transitions);
  // ...and without merging, every sequence is its own "state".
  EXPECT_EQ(unpruned->states_visited, 1 + unpruned->unpruned_sequences);
}

TEST(CheckEngineTest, QuorumCacheOracleHoldsExhaustively) {
  CheckOptions options;
  options.protocol = "ODV";
  options.topology = "single3";
  options.depth = 5;
  options.policy.oracle = DifferentialOracle::kQuorumCache;
  auto report = RunCheck(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->counterexample.has_value());
}

TEST(CheckEngineTest, JmEquivalenceOracleHoldsExhaustively) {
  CheckOptions options;
  options.protocol = "DV";
  options.topology = "pairs";
  options.depth = 5;
  options.policy.oracle = DifferentialOracle::kJmEquivalence;
  auto report = RunCheck(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->counterexample.has_value());
}

TEST(CheckEngineTest, LexPairOracleIsRefutedOnFiveSites) {
  // The deliberately refutable oracle: optimistic (ODV) partition state
  // lags instantaneous (LDV) state after unaccessed failures, and three
  // kills on five sites expose a no-tie grant disagreement.
  CheckOptions options;
  options.protocol = "LDV";
  options.topology = "single5";
  options.depth = 4;
  options.policy.oracle = DifferentialOracle::kLexPair;
  auto report = RunCheck(options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->counterexample.has_value());
  EXPECT_EQ(report->counterexample->violation.invariant,
            "lex_pair_divergence");
  EXPECT_EQ(report->counterexample->schedule.size(), 3u);
  EXPECT_TRUE(ReplayCounterExample(*report->counterexample).ok());
}

TEST(CheckEngineTest, OracleProtocolMismatchIsAConfigurationError) {
  CheckOptions options;
  options.protocol = "ODV";
  options.topology = "single3";
  options.policy.oracle = DifferentialOracle::kJmEquivalence;
  EXPECT_FALSE(RunCheck(options).ok());
  options.policy.oracle = DifferentialOracle::kLexPair;
  EXPECT_FALSE(RunCheck(options).ok());
}

TEST(CheckEngineTest, UnknownProtocolAndTopologyAreErrors) {
  CheckOptions options;
  options.protocol = "NOPE";
  EXPECT_FALSE(RunCheck(options).ok());
  options.protocol = "ODV";
  options.topology = "ring9";
  EXPECT_FALSE(RunCheck(options).ok());
}

TEST(ShrinkScheduleTest, RemovesEverythingButTheCulprits) {
  // Synthetic oracle: fails iff both toggle_site:1 and toggle_site:3
  // survive, regardless of anything between them.
  std::vector<CheckAction> schedule;
  for (int i = 0; i < 8; ++i) {
    schedule.push_back({ActionKind::kToggleSite, i});
  }
  int calls = 0;
  auto still_fails = [&calls](const std::vector<CheckAction>& s) {
    ++calls;
    bool one = false, three = false;
    for (const CheckAction& a : s) {
      if (a.target == 1) one = true;
      if (a.target == 3) three = true;
    }
    return one && three;
  };
  auto minimal = ShrinkSchedule(schedule, still_fails);
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal[0].target, 1);
  EXPECT_EQ(minimal[1].target, 3);
  EXPECT_GT(calls, 0);
}

TEST(ShrinkScheduleTest, AlreadyMinimalScheduleIsUntouched) {
  std::vector<CheckAction> schedule = {{ActionKind::kWrite, -1}};
  auto minimal = ShrinkSchedule(
      schedule, [](const std::vector<CheckAction>&) { return true; });
  EXPECT_EQ(minimal, schedule);
}

TEST(ShrinkScheduleTest, ResultIsOneMinimal) {
  // Fails iff at least 3 writes survive; any 3-write subsequence is
  // 1-minimal.
  std::vector<CheckAction> schedule(9, CheckAction{ActionKind::kWrite, -1});
  auto still_fails = [](const std::vector<CheckAction>& s) {
    return s.size() >= 3;
  };
  auto minimal = ShrinkSchedule(schedule, still_fails);
  EXPECT_EQ(minimal.size(), 3u);
}

// Golden reports, captured before phase A switched from replaying every
// expansion to cloning frontier states: any drift in exploration order,
// claim resolution, counting or shrinking changes one of these values,
// at any job count.
TEST(CheckGoldenTest, Section3Depth8ReportIsPinned) {
  CheckOptions options;
  options.protocol = "ODV";
  options.topology = "section3";
  options.depth = 8;
  for (int jobs : {1, 4}) {
    options.jobs = jobs;
    auto report = RunCheck(options);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->states_visited, 22112u) << jobs;
    EXPECT_EQ(report->transitions, 78486u) << jobs;
    EXPECT_EQ(report->commits, 110703u) << jobs;
    EXPECT_EQ(report->reads_checked, 210641u) << jobs;
    EXPECT_EQ(report->visited_digest, 0xbd318a10362d0caeull) << jobs;
    EXPECT_EQ(report->closed_at_depth, 0) << jobs;
    EXPECT_TRUE(report->memoized);
    EXPECT_TRUE(report->por_active);
    EXPECT_FALSE(report->counterexample.has_value());
  }
}

TEST(CheckGoldenTest, TdvPairsDepth5CounterexampleIsPinned) {
  CheckOptions options;
  options.protocol = "TDV";
  options.topology = "pairs";
  options.depth = 5;
  options.policy.strict = true;
  const std::string expected =
      "{\n"
      "  \"schema\": \"dynvote-counterexample-v1\",\n"
      "  \"protocol\": \"TDV\",\n"
      "  \"topology\": \"pairs\",\n"
      "  \"placement\": [0,1,2,3],\n"
      "  \"strict\": true,\n"
      "  \"max_granted_groups\": 1,\n"
      "  \"oracle\": \"none\",\n"
      "  \"invariant\": \"mutual_exclusion\",\n"
      "  \"step\": 3,\n"
      "  \"detail\": \"2 groups granted (threshold 1), e.g. group {2, 3}\",\n"
      "  \"schedule\": \"toggle_site:0 toggle_site:1 toggle_repeater:0 "
      "toggle_site:0\"\n"
      "}\n";
  for (int jobs : {1, 4}) {
    options.jobs = jobs;
    auto report = RunCheck(options);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->states_visited, 184u) << jobs;
    EXPECT_EQ(report->transitions, 321u) << jobs;
    EXPECT_EQ(report->commits, 128u) << jobs;
    EXPECT_EQ(report->reads_checked, 93u) << jobs;
    EXPECT_EQ(report->visited_digest, 0xe223765fef5b91b4ull) << jobs;
    ASSERT_TRUE(report->counterexample.has_value()) << jobs;
    EXPECT_EQ(CounterExampleToJson(*report->counterexample), expected)
        << jobs;
  }
}

// Section3 closure goldens, captured before the BFS frontier switched
// to parent links (MCV, DV) and before states were assigned instead of
// cloned (LDV, ODV): MCV and DV exhaust their reachable state space well
// inside depth 16, LDV and ODV inside depth 20, so these are the whole
// universe's state sets. The two larger universes run at four jobs only,
// to keep the suite quick; MCV and DV hold jobs 1 and 4 to the same
// numbers.
TEST(CheckGoldenTest, Section3ClosureIsPinned) {
  struct Golden {
    const char* protocol;
    int depth;
    std::vector<int> jobs;
    std::uint64_t states;
    std::uint64_t transitions;
    std::uint64_t commits;
    std::uint64_t reads;
    std::uint64_t digest;
    int closed_at_depth;
  };
  const Golden goldens[] = {
      {"MCV", 16, {1, 4}, 1792, 10808, 21184, 1624, 0x25fb774c4c163ae0ull,
       11},
      {"DV", 16, {1, 4}, 22786, 205074, 308555, 3208, 0x2fe9ff47d4381e49ull,
       14},
      {"LDV", 20, {4}, 126914, 1142226, 2134139, 30824,
       0xb4f57ef279f9f729ull, 18},
      {"ODV", 20, {4}, 210816, 1564354, 3110428, 6416474,
       0x8477fab8b1ef3cc0ull, 20},
  };
  for (const Golden& g : goldens) {
    CheckOptions options;
    options.protocol = g.protocol;
    options.topology = "section3";
    options.depth = g.depth;
    for (int jobs : g.jobs) {
      options.jobs = jobs;
      auto report = RunCheck(options);
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_EQ(report->states_visited, g.states) << g.protocol << jobs;
      EXPECT_EQ(report->transitions, g.transitions) << g.protocol << jobs;
      EXPECT_EQ(report->commits, g.commits) << g.protocol << jobs;
      EXPECT_EQ(report->reads_checked, g.reads) << g.protocol << jobs;
      EXPECT_EQ(report->visited_digest, g.digest) << g.protocol << jobs;
      EXPECT_EQ(report->closed_at_depth, g.closed_at_depth)
          << g.protocol << jobs;
      EXPECT_TRUE(report->memoized);
      EXPECT_FALSE(report->counterexample.has_value());
    }
  }
}

// MCV reaches its last new state at depth 10. A depth-10 bound has not
// yet seen a level add nothing, so the space is still open there; the
// depth-11 bound's final level is the first empty one and counts.
TEST(CheckGoldenTest, ClosureIsCountedAtTheFinalLevel) {
  CheckOptions options;
  options.protocol = "MCV";
  options.topology = "section3";
  options.depth = 10;
  auto at_ten = RunCheck(options);
  ASSERT_TRUE(at_ten.ok()) << at_ten.status();
  EXPECT_EQ(at_ten->states_visited, 1792u);
  EXPECT_EQ(at_ten->closed_at_depth, 0);
  options.depth = 11;
  auto at_eleven = RunCheck(options);
  ASSERT_TRUE(at_eleven.ok()) << at_eleven.status();
  EXPECT_EQ(at_eleven->states_visited, 1792u);
  EXPECT_EQ(at_eleven->closed_at_depth, 11);
}

}  // namespace
}  // namespace check
}  // namespace dynvote
