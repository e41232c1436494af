// The parallel engine's determinism contract: every CheckReport field —
// verdict, counts, digest, and the first counterexample's exact JSON —
// is bit-identical for any --check-jobs value, with and without
// partial-order reduction; and POR itself never changes the
// visited-state *set*, only the expansions spent covering it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/checker.h"
#include "check/counterexample.h"
#include "test_text.h"
#include "util/thread_pool.h"

namespace dynvote {
namespace check {
namespace {

/// Full-report equality, counterexample compared through its canonical
/// JSON so every recorded field (schedule, step, detail) participates.
void ExpectReportsIdentical(const CheckReport& a, const CheckReport& b,
                            const std::string& label) {
  EXPECT_EQ(a.states_visited, b.states_visited) << label;
  EXPECT_EQ(a.transitions, b.transitions) << label;
  EXPECT_EQ(a.schedules_run, b.schedules_run) << label;
  EXPECT_EQ(a.unpruned_sequences, b.unpruned_sequences) << label;
  EXPECT_EQ(a.commits, b.commits) << label;
  EXPECT_EQ(a.reads_checked, b.reads_checked) << label;
  EXPECT_EQ(a.memoized, b.memoized) << label;
  EXPECT_EQ(a.por_active, b.por_active) << label;
  EXPECT_EQ(a.visited_digest, b.visited_digest) << label;
  ASSERT_EQ(a.counterexample.has_value(), b.counterexample.has_value())
      << label;
  if (a.counterexample.has_value()) {
    EXPECT_EQ(CounterExampleToJson(*a.counterexample),
              CounterExampleToJson(*b.counterexample))
        << label;
  }
}

/// Runs `options` at jobs = 1, 2, 4 and asserts all three reports are
/// identical. Returns the jobs=1 report for further assertions.
CheckReport ExpectJobsInvariant(CheckOptions options,
                                const std::string& label) {
  options.jobs = 1;
  auto solo = RunCheck(options);
  EXPECT_TRUE(solo.ok()) << label << ": " << solo.status();
  for (int jobs : {2, 4}) {
    options.jobs = jobs;
    auto parallel = RunCheck(options);
    EXPECT_TRUE(parallel.ok()) << label << ": " << parallel.status();
    if (solo.ok() && parallel.ok()) {
      ExpectReportsIdentical(*solo, *parallel,
                             testing_util::Cat(
                                 {label, " jobs=", std::to_string(jobs)}));
    }
  }
  return solo.ok() ? *solo : CheckReport{};
}

TEST(ParallelCheckTest, ExhaustiveIsJobsInvariantWithAndWithoutPor) {
  struct Case {
    const char* protocol;
    const char* topology;
    int depth;
  };
  for (const Case& c : {Case{"ODV", "single3", 7}, Case{"ODV", "pairs", 6}}) {
    for (bool por : {true, false}) {
      CheckOptions options;
      options.protocol = c.protocol;
      options.topology = c.topology;
      options.depth = c.depth;
      options.por = por;
      const std::string label = std::string(c.topology) +
                                (por ? " por" : " no-por");
      CheckReport report = ExpectJobsInvariant(options, label);
      EXPECT_EQ(report.por_active, por) << label;
      EXPECT_FALSE(report.counterexample.has_value()) << label;
    }
  }
}

TEST(ParallelCheckTest, ViolationAndItsJsonAreJobsInvariant) {
  // TDV on pairs rediscovers the topological fork hazard under strict
  // checking; the shrunk counterexample must come out byte-identical
  // whichever worker first replayed the violating schedule.
  CheckOptions options;
  options.protocol = "TDV";
  options.topology = "pairs";
  options.depth = 5;
  options.policy.strict = true;
  for (bool por : {true, false}) {
    options.por = por;
    CheckReport report =
        ExpectJobsInvariant(options, por ? "tdv por" : "tdv no-por");
    ASSERT_TRUE(report.counterexample.has_value());
    EXPECT_EQ(report.counterexample->violation.invariant,
              "mutual_exclusion");
  }
}

TEST(ParallelCheckTest, SwarmIsJobsInvariant) {
  CheckOptions options;
  options.protocol = "ODV";
  options.topology = "pairs";
  options.mode = CheckMode::kSwarm;
  options.swarm_schedules = 48;
  options.swarm_depth = 12;
  options.seed = 7;
  CheckReport clean = ExpectJobsInvariant(options, "swarm clean");
  EXPECT_EQ(clean.schedules_run, 48u);

  // And with a violation: the counterexample must come from the first
  // violating schedule in index order, not completion order, so later
  // schedules' work is excluded from the totals identically everywhere.
  options.policy.max_granted_groups = 0;  // test hook: any grant trips
  CheckReport tripped = ExpectJobsInvariant(options, "swarm violation");
  ASSERT_TRUE(tripped.counterexample.has_value());
  EXPECT_LT(tripped.schedules_run, 48u);
}

TEST(ParallelCheckTest, JobsZeroUsesAllCoresWithoutChangingResults) {
  CheckOptions options;
  options.protocol = "ODV";
  options.topology = "single3";
  options.depth = 6;
  auto solo = RunCheck(options);
  options.jobs = 0;
  auto all_cores = RunCheck(options);
  ASSERT_TRUE(solo.ok() && all_cores.ok());
  ExpectReportsIdentical(*solo, *all_cores, "jobs=0");
}

TEST(ParallelCheckTest, PorPreservesTheVisitedStateSet) {
  // The differential contract: POR on and off reach the identical state
  // set at equal depth — equal count AND equal order-independent digest
  // — while POR strictly reduces the expansions spent getting there.
  struct Case {
    const char* protocol;
    const char* topology;
    int depth;
  };
  for (const Case& c : {Case{"ODV", "single3", 8}, Case{"ODV", "section3", 5},
                        Case{"MCV", "pairs", 6}}) {
    CheckOptions options;
    options.protocol = c.protocol;
    options.topology = c.topology;
    options.depth = c.depth;
    auto with_por = RunCheck(options);
    options.por = false;
    auto without = RunCheck(options);
    ASSERT_TRUE(with_por.ok() && without.ok()) << c.topology;
    EXPECT_TRUE(with_por->por_active) << c.protocol;
    EXPECT_FALSE(without->por_active);
    EXPECT_EQ(with_por->states_visited, without->states_visited)
        << c.protocol << " on " << c.topology;
    EXPECT_EQ(with_por->visited_digest, without->visited_digest)
        << c.protocol << " on " << c.topology;
    EXPECT_LT(with_por->transitions, without->transitions);
  }
}

TEST(ParallelCheckTest, PorIsInactiveWhereTogglesDoNotCommute) {
  // Instantaneous protocols commit partition-set updates per network
  // event, so toggle order is observable and reduction would be unsound:
  // the harness must refuse it and the report must say so.
  for (const char* protocol : {"DV", "LDV", "TDV", "AC"}) {
    CheckOptions options;
    options.protocol = protocol;
    options.topology = "single3";
    options.depth = 5;
    options.policy.strict = false;  // hazards of TDV/AC are not the point
    auto with_por = RunCheck(options);
    options.por = false;
    auto without = RunCheck(options);
    ASSERT_TRUE(with_por.ok() && without.ok()) << protocol;
    EXPECT_FALSE(with_por->por_active) << protocol;
    ExpectReportsIdentical(*with_por, *without, protocol);
  }
}

TEST(ParallelCheckTest, PorIsInactiveInSwarmMode) {
  CheckOptions options;
  options.protocol = "ODV";
  options.topology = "pairs";
  options.mode = CheckMode::kSwarm;
  options.swarm_schedules = 8;
  auto report = RunCheck(options);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->por_active);
}

TEST(ParallelCheckTest, NegativeJobsIsAConfigurationError) {
  CheckOptions options;
  options.jobs = -1;
  EXPECT_FALSE(RunCheck(options).ok());
}

TEST(ParallelCheckTest, JobsAboveTheWorkerCapIsAConfigurationError) {
  // Refused before the pool is built; never run at the cap itself.
  CheckOptions options;
  options.jobs = kMaxWorkerThreads + 1;
  EXPECT_TRUE(RunCheck(options).status().IsInvalidArgument());
}

}  // namespace
}  // namespace check
}  // namespace dynvote
