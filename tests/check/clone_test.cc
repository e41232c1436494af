// CheckHarness::AssignFrom is invisible: the exhaustive engine rebuilds
// each frontier state along a cached ancestor path and assigns it into
// one scratch harness per child, so a harness assigned from another at
// any prefix of a schedule and driven through the rest — a "clone" —
// must be indistinguishable from replaying the whole schedule on a fresh
// harness (same signature bytes, commit/read counts, step count and
// violation), whatever the target ran before, and must never disturb
// the harness it was assigned from. Checked over seeded random schedules
// on every check topology, for every protocol the checker runs and every
// differential oracle.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/action.h"
#include "check/harness.h"
#include "check/topologies.h"
#include "util/rng.h"
#include "test_text.h"

namespace dynvote {
namespace check {
namespace {

struct ArmCase {
  std::string protocol;
  DifferentialOracle oracle = DifferentialOracle::kNone;
};

/// Everything a run of the harness exposes to the checker.
struct Outcome {
  std::optional<Violation> violation;
  bool canonical = false;
  std::string signature;
  std::uint64_t commits = 0;
  std::uint64_t reads = 0;
  int steps = 0;
};

/// Applies schedule[from..] to `harness` (stopping at a violation) and
/// records the outcome.
Outcome Finish(CheckHarness* harness, const std::vector<CheckAction>& schedule,
               std::size_t from) {
  Outcome out;
  for (std::size_t i = from; i < schedule.size(); ++i) {
    out.violation = harness->Apply(schedule[i]);
    if (out.violation.has_value()) break;
  }
  if (!out.violation.has_value()) {
    out.canonical = harness->AppendSignature(&out.signature);
  }
  out.commits = harness->commits();
  out.reads = harness->reads_checked();
  out.steps = harness->steps();
  return out;
}

void ExpectSameOutcome(const Outcome& a, const Outcome& b,
                       const std::string& label) {
  EXPECT_EQ(a.signature, b.signature) << label;
  EXPECT_EQ(a.canonical, b.canonical) << label;
  EXPECT_EQ(a.commits, b.commits) << label;
  EXPECT_EQ(a.reads, b.reads) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  ASSERT_EQ(a.violation.has_value(), b.violation.has_value()) << label;
  if (a.violation.has_value()) {
    EXPECT_EQ(a.violation->invariant, b.violation->invariant) << label;
    EXPECT_EQ(a.violation->step, b.violation->step) << label;
    EXPECT_EQ(a.violation->detail, b.violation->detail) << label;
  }
}

std::vector<ArmCase> AllArmCases() {
  std::vector<ArmCase> cases;
  for (const char* protocol :
       {"MCV", "DV", "LDV", "ODV", "TDV", "OTDV", "AC", "JM-DV"}) {
    cases.push_back({protocol, DifferentialOracle::kNone});
  }
  cases.push_back({"ODV", DifferentialOracle::kQuorumCache});
  cases.push_back({"LDV", DifferentialOracle::kQuorumCache});
  cases.push_back({"DV", DifferentialOracle::kJmEquivalence});
  cases.push_back({"LDV", DifferentialOracle::kLexPair});
  return cases;
}

TEST(HarnessCloneTest, CloneAtEveryPrefixEqualsAFullReplay) {
  constexpr int kSchedules = 6;
  constexpr int kLength = 12;
  int compared = 0;
  int violations = 0;
  for (const std::string& topology_name : CheckTopologyNames()) {
    auto topology = MakeCheckTopology(topology_name);
    ASSERT_TRUE(topology.ok()) << topology.status();
    const std::vector<CheckAction> alphabet = ActionAlphabet(**topology);
    for (const ArmCase& arm : AllArmCases()) {
      for (int k = 0; k < kSchedules; ++k) {
        // Alternate strict and loose enforcement so both the violation
        // paths and long violation-free runs are exercised.
        InvariantPolicy policy;
        policy.strict = k % 2 == 0;
        policy.oracle = arm.oracle;
        auto fresh = [&] {
          auto made = CheckHarness::Make(*topology, (*topology)->AllSites(),
                                         arm.protocol, policy);
          EXPECT_TRUE(made.ok()) << made.status();
          return made.MoveValue();
        };

        Rng rng(static_cast<std::uint64_t>(k) * 1000003 +
                topology_name.size());
        std::vector<CheckAction> schedule;
        for (int i = 0; i < kLength; ++i) {
          schedule.push_back(alphabet[rng.NextBounded(alphabet.size())]);
        }
        const std::string label =
            arm.protocol + "/" + DifferentialOracleName(arm.oracle) + " on " +
            topology_name + ": " + ScheduleToString(schedule);

        auto replay = fresh();
        const Outcome reference = Finish(replay.get(), schedule, 0);
        if (reference.violation.has_value()) ++violations;
        // Prefixes that end before the violating action.
        const std::size_t last_prefix =
            reference.violation.has_value()
                ? static_cast<std::size_t>(reference.violation->step)
                : schedule.size();

        // One target reused across prefixes, as the engine reuses its
        // scratch child: from the second prefix on it holds the state of
        // a longer run than the one it is assigned.
        auto source = fresh();
        auto clone = fresh();
        for (std::size_t prefix = 0; prefix <= last_prefix; ++prefix) {
          if (prefix > 0) {
            ASSERT_FALSE(source->Apply(schedule[prefix - 1]).has_value())
                << label;
          }
          clone->AssignFrom(*source);
          ExpectSameOutcome(
              Finish(clone.get(), schedule, prefix), reference,
              testing_util::Cat({label, " cloned after ",
                                 std::to_string(prefix), " actions"}));
          ++compared;
        }
      }
    }
  }
  // The sample must cover both outcomes.
  EXPECT_GT(violations, 0);
  EXPECT_GT(compared, 1000);
}

TEST(HarnessCloneTest, CloneMutationsLeaveTheSourceUntouched) {
  for (const std::string& topology_name : CheckTopologyNames()) {
    auto topology = MakeCheckTopology(topology_name);
    ASSERT_TRUE(topology.ok()) << topology.status();
    const std::vector<CheckAction> alphabet = ActionAlphabet(**topology);
    for (const ArmCase& arm : AllArmCases()) {
      InvariantPolicy policy;
      policy.strict = false;
      policy.oracle = arm.oracle;
      auto made = CheckHarness::Make(*topology, (*topology)->AllSites(),
                                     arm.protocol, policy);
      ASSERT_TRUE(made.ok()) << made.status();
      std::unique_ptr<CheckHarness> source = made.MoveValue();
      const std::string label = arm.protocol + "/" +
                                DifferentialOracleName(arm.oracle) + " on " +
                                topology_name;

      // A prefix that commits, so the source has replica contents and a
      // history the clone can diverge from.
      const std::vector<CheckAction> prefix = {
          {ActionKind::kWrite, -1}, {ActionKind::kToggleSite, 0},
          {ActionKind::kWrite, -1}};
      for (const CheckAction& action : prefix) {
        ASSERT_FALSE(source->Apply(action).has_value()) << label;
      }
      std::string before;
      ASSERT_TRUE(source->AppendSignature(&before)) << label;
      const std::uint64_t commits = source->commits();
      const std::uint64_t reads = source->reads_checked();

      // Drive the clone through every action of the alphabet once: every
      // site and repeater flips, and writes, reads and recoveries mutate
      // its copy of the protocol state and replica contents.
      auto made_clone = CheckHarness::Make(
          *topology, (*topology)->AllSites(), arm.protocol, policy);
      ASSERT_TRUE(made_clone.ok()) << made_clone.status();
      std::unique_ptr<CheckHarness> clone = made_clone.MoveValue();
      clone->AssignFrom(*source);
      for (const CheckAction& action : alphabet) {
        if (clone->Apply(action).has_value()) break;
      }
      std::string clone_signature;
      clone->AppendSignature(&clone_signature);
      EXPECT_NE(clone_signature, before) << label;

      std::string after;
      ASSERT_TRUE(source->AppendSignature(&after)) << label;
      EXPECT_EQ(after, before) << label;
      EXPECT_EQ(source->commits(), commits) << label;
      EXPECT_EQ(source->reads_checked(), reads) << label;
      EXPECT_EQ(source->steps(), static_cast<int>(prefix.size())) << label;

      // The source still continues exactly as a fresh replay of its own
      // schedule would: the clone shares no replica contents with it.
      std::vector<CheckAction> schedule = prefix;
      schedule.push_back({ActionKind::kToggleSite, 0});
      schedule.push_back({ActionKind::kRecoverAll, -1});
      schedule.push_back({ActionKind::kReadCheck, -1});
      auto replay = CheckHarness::Make(*topology, (*topology)->AllSites(),
                                       arm.protocol, policy);
      ASSERT_TRUE(replay.ok()) << replay.status();
      ExpectSameOutcome(Finish(source.get(), schedule, prefix.size()),
                        Finish(replay->get(), schedule, 0), label);
    }
  }
}

TEST(HarnessCloneTest, AssignIntoADivergedTargetEqualsAFullReplay) {
  // The target first runs a longer schedule than the source: more
  // committed history, stale replicas (writes with sites and repeaters
  // down) and a different network. Assigning the source over it must
  // leave no trace of that run.
  int compared = 0;
  for (const std::string& topology_name : CheckTopologyNames()) {
    auto topology = MakeCheckTopology(topology_name);
    ASSERT_TRUE(topology.ok()) << topology.status();
    const std::vector<CheckAction> alphabet = ActionAlphabet(**topology);
    std::vector<CheckAction> divergent;
    for (const CheckAction& action : alphabet) {
      divergent.push_back({ActionKind::kWrite, -1});
      divergent.push_back(action);
    }
    divergent.push_back({ActionKind::kWrite, -1});
    for (const ArmCase& arm : AllArmCases()) {
      InvariantPolicy policy;
      policy.strict = false;
      policy.oracle = arm.oracle;
      auto fresh = [&] {
        auto made = CheckHarness::Make(*topology, (*topology)->AllSites(),
                                       arm.protocol, policy);
        EXPECT_TRUE(made.ok()) << made.status();
        return made.MoveValue();
      };
      const std::string label = arm.protocol + "/" +
                                DifferentialOracleName(arm.oracle) + " on " +
                                topology_name;
      Rng rng(topology_name.size() * 31 + arm.protocol.size());
      std::vector<CheckAction> schedule;
      for (int i = 0; i < 8; ++i) {
        schedule.push_back(alphabet[rng.NextBounded(alphabet.size())]);
      }
      auto replay = fresh();
      const Outcome reference = Finish(replay.get(), schedule, 0);
      const std::size_t last_prefix =
          reference.violation.has_value()
              ? static_cast<std::size_t>(reference.violation->step)
              : schedule.size();

      auto source = fresh();
      for (std::size_t prefix = 0; prefix <= last_prefix; ++prefix) {
        if (prefix > 0) {
          ASSERT_FALSE(source->Apply(schedule[prefix - 1]).has_value())
              << label;
        }
        // Even a violation on the way does not stop it: AssignFrom also
        // revives a harness that tripped an invariant.
        auto target = fresh();
        for (const CheckAction& action : divergent) target->Apply(action);
        ASSERT_EQ(target->steps(), static_cast<int>(divergent.size()));
        target->AssignFrom(*source);
        ExpectSameOutcome(
            Finish(target.get(), schedule, prefix), reference,
            testing_util::Cat({label, " assigned after ",
                               std::to_string(prefix), " actions"}));
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 100);
}

TEST(HarnessCloneDeathTest, AssignAcrossProtocolsOrOraclesDies) {
  auto topology = MakeCheckTopology("single3");
  ASSERT_TRUE(topology.ok()) << topology.status();
  auto make = [&](const std::string& protocol, DifferentialOracle oracle) {
    InvariantPolicy policy;
    policy.oracle = oracle;
    auto made = CheckHarness::Make(*topology, (*topology)->AllSites(),
                                   protocol, policy);
    EXPECT_TRUE(made.ok()) << made.status();
    return made.MoveValue();
  };
  auto odv = make("ODV", DifferentialOracle::kNone);
  auto mcv = make("MCV", DifferentialOracle::kNone);
  auto shadowed = make("ODV", DifferentialOracle::kQuorumCache);
  EXPECT_DEATH(odv->AssignFrom(*mcv), "AssignFrom across protocol types");
  EXPECT_DEATH(odv->AssignFrom(*shadowed),
               "AssignFrom across oracle configurations");
}

}  // namespace
}  // namespace check
}  // namespace dynvote
