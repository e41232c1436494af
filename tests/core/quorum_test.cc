#include "core/quorum.h"

#include <utility>

#include <gtest/gtest.h>

#include "core/mcv.h"
#include "core/test_topologies.h"

namespace dynvote {
namespace {

using testing_util::Section3Network;

ReplicaStore MustMake(SiteSet placement) {
  auto store = ReplicaStore::Make(placement);
  EXPECT_TRUE(store.ok());
  return store.MoveValue();
}

TEST(VoteWeightsTest, DefaultIsUniform) {
  VoteWeights w;
  EXPECT_TRUE(w.IsUniform());
  EXPECT_EQ(w.WeightOf(5), 1);
  EXPECT_EQ(w.WeightOf(SiteSet{0, 3, 7}), 3);
}

TEST(VoteWeightsTest, ExplicitWeights) {
  auto w = VoteWeights::Make({2, 1, 1});
  ASSERT_TRUE(w.ok());
  EXPECT_FALSE(w->IsUniform());
  EXPECT_EQ(w->WeightOf(0), 2);
  EXPECT_EQ(w->WeightOf(2), 1);
  EXPECT_EQ(w->WeightOf(SiteSet{0, 1}), 3);
}

TEST(VoteWeightsTest, RejectsNegative) {
  EXPECT_TRUE(VoteWeights::Make({1, -1}).status().IsInvalidArgument());
}

TEST(VoteWeightsTest, CoversTracksTableLength) {
  auto w = VoteWeights::Make({2, 1, 1});
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(w->Covers(SiteSet{0, 1, 2}));
  EXPECT_FALSE(w->Covers(SiteSet{0, 3}));
  EXPECT_TRUE(w->Covers(SiteSet{}));
  EXPECT_TRUE(VoteWeights().Covers(SiteSet{0, 63}));  // uniform covers all
}

TEST(VoteWeightsTest, WeightBeyondTableIsAContractViolation) {
  // Historically WeightOf silently returned 1 past the end of the table,
  // which let an accidentally short table flip grant/deny decisions (see
  // ShortWeightTableFlipRegression). It is now a CHECK.
  auto w = VoteWeights::Make({2, 1, 1});
  ASSERT_TRUE(w.ok());
  EXPECT_DEATH(w->WeightOf(9), "no entry");
  EXPECT_DEATH(w->WeightOf(SiteSet{0, 9}), "no entry");
}

TEST(VoteWeightsTest, MakePaddedFillsWithOnes) {
  auto w = VoteWeights::MakePadded({3, 2}, 4);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->WeightOf(0), 3);
  EXPECT_EQ(w->WeightOf(1), 2);
  EXPECT_EQ(w->WeightOf(2), 1);
  EXPECT_EQ(w->WeightOf(3), 1);
  EXPECT_TRUE(w->Covers(SiteSet{0, 1, 2, 3}));
  EXPECT_TRUE(
      VoteWeights::MakePadded({1, 2, 3}, 2).status().IsInvalidArgument());
  EXPECT_TRUE(
      VoteWeights::MakePadded({1, -2}, 4).status().IsInvalidArgument());
}

TEST(VoteWeightsTest, ShortWeightTableFlipRegression) {
  // The silent weight-1 default was not just cosmetic: with intended
  // weights {1, 1, 3, 3} over placement {0, 1, 2, 3}, a table
  // accidentally one entry short ({1, 1, 3}, old behaviour: site 3
  // defaults to 1) gives group {1, 2} 4 votes of a 6-vote block —
  // GRANTED — where the intended table gives 4 of 8 — an exact tie,
  // DENIED without a tie-break rule.
  ReplicaStore store = MustMake(SiteSet{0, 1, 2, 3});

  auto intended = VoteWeights::Make({1, 1, 3, 3});
  ASSERT_TRUE(intended.ok());
  QuorumDecision correct = EvaluateDynamicQuorum(
      store, SiteSet{1, 2}, TieBreak::kNone, nullptr, *intended);
  EXPECT_FALSE(correct.granted);

  auto padded_as_before = VoteWeights::MakePadded({1, 1, 3}, 4);
  ASSERT_TRUE(padded_as_before.ok());
  QuorumDecision flipped = EvaluateDynamicQuorum(
      store, SiteSet{1, 2}, TieBreak::kNone, nullptr, *padded_as_before);
  EXPECT_TRUE(flipped.granted);  // what the old silent default produced
}

TEST(QuorumTest, StrictMajorityGrants) {
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  QuorumDecision d =
      EvaluateDynamicQuorum(store, SiteSet{0, 1}, TieBreak::kNone);
  EXPECT_TRUE(d.granted);
  EXPECT_FALSE(d.by_tie_break);
  EXPECT_EQ(d.quorum_set, (SiteSet{0, 1}));
  EXPECT_EQ(d.prev_partition, (SiteSet{0, 1, 2}));
}

TEST(QuorumTest, MinorityDenied) {
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  QuorumDecision d =
      EvaluateDynamicQuorum(store, SiteSet{2}, TieBreak::kLexicographic);
  EXPECT_FALSE(d.granted);
}

TEST(QuorumTest, NoCopiesReachableDenied) {
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  QuorumDecision d =
      EvaluateDynamicQuorum(store, SiteSet{5, 6}, TieBreak::kLexicographic);
  EXPECT_FALSE(d.granted);
  EXPECT_TRUE(d.reachable_copies.Empty());
}

TEST(QuorumTest, TieDeniedWithoutTieBreak) {
  ReplicaStore store = MustMake(SiteSet{0, 1});
  QuorumDecision d =
      EvaluateDynamicQuorum(store, SiteSet{0}, TieBreak::kNone);
  EXPECT_FALSE(d.granted);
}

TEST(QuorumTest, TieGrantedToMaxElementSide) {
  // The paper's running example: P = {A, C}, A > C; A alone is the
  // majority partition, C alone is not.
  ReplicaStore store = MustMake(SiteSet{0, 2});
  QuorumDecision a =
      EvaluateDynamicQuorum(store, SiteSet{0}, TieBreak::kLexicographic);
  EXPECT_TRUE(a.granted);
  EXPECT_TRUE(a.by_tie_break);
  QuorumDecision c =
      EvaluateDynamicQuorum(store, SiteSet{2}, TieBreak::kLexicographic);
  EXPECT_FALSE(c.granted);
}

TEST(QuorumTest, StaleSitesExcludedFromQ) {
  // Site 2 missed the last operation (lower o): it may be reachable but
  // contributes nothing to the quorum count.
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  store.Commit(SiteSet{0, 1}, 2, 1, SiteSet{0, 1});
  QuorumDecision d =
      EvaluateDynamicQuorum(store, SiteSet{1, 2}, TieBreak::kLexicographic);
  EXPECT_EQ(d.quorum_set, SiteSet{1});
  EXPECT_EQ(d.prev_partition, (SiteSet{0, 1}));
  // |Q| = 1 = |Pm|/2 but max(Pm) = 0 is not in Q.
  EXPECT_FALSE(d.granted);
}

TEST(QuorumTest, StaleMajorityCannotOverrideNewLineage) {
  // P advanced to {0, 1}; sites 2, 3 still hold the original {0,1,2,3}.
  // Even all of {2, 3} together must not be granted: Q is read from the
  // stale lineage, which requires its own majority including max rules.
  ReplicaStore store = MustMake(SiteSet{0, 1, 2, 3});
  store.Commit(SiteSet{0, 1}, 5, 3, SiteSet{0, 1});
  QuorumDecision d =
      EvaluateDynamicQuorum(store, SiteSet{2, 3}, TieBreak::kLexicographic);
  EXPECT_EQ(d.prev_partition, (SiteSet{0, 1, 2, 3}));
  EXPECT_EQ(d.quorum_set, (SiteSet{2, 3}));
  EXPECT_FALSE(d.granted);  // 2 = half of 4 but max (0) not in Q
}

TEST(QuorumTest, CurrentSetTracksVersions) {
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  store.mutable_state(0)->version = 9;
  store.mutable_state(1)->version = 9;
  QuorumDecision d = EvaluateDynamicQuorum(store, SiteSet{0, 1, 2},
                                           TieBreak::kLexicographic);
  EXPECT_EQ(d.current_set, (SiteSet{0, 1}));
}

TEST(QuorumTest, RepresentativeIsInQ) {
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  store.Commit(SiteSet{1, 2}, 4, 2, SiteSet{1, 2});
  QuorumDecision d = EvaluateDynamicQuorum(store, SiteSet{0, 1, 2},
                                           TieBreak::kLexicographic);
  EXPECT_TRUE(d.quorum_set.Contains(d.representative));
  EXPECT_EQ(d.prev_partition, (SiteSet{1, 2}));
}

TEST(QuorumTest, WeightedMajority) {
  // Site 0 carries 3 votes, sites 1 and 2 one each: site 0 alone is a
  // strict weighted majority of the initial block.
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  auto w = VoteWeights::Make({3, 1, 1});
  ASSERT_TRUE(w.ok());
  QuorumDecision d = EvaluateDynamicQuorum(store, SiteSet{0},
                                           TieBreak::kNone, nullptr, *w);
  EXPECT_TRUE(d.granted);
  QuorumDecision d2 = EvaluateDynamicQuorum(store, SiteSet{1, 2},
                                            TieBreak::kNone, nullptr, *w);
  EXPECT_FALSE(d2.granted);
}

TEST(QuorumTest, WeightedTieUsesMaxElement) {
  // Weights 1,1,2: {0,1} and {2} are both exactly half (2 of 4).
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  auto w = VoteWeights::Make({1, 1, 2});
  ASSERT_TRUE(w.ok());
  QuorumDecision d01 = EvaluateDynamicQuorum(
      store, SiteSet{0, 1}, TieBreak::kLexicographic, nullptr, *w);
  EXPECT_TRUE(d01.granted);
  EXPECT_TRUE(d01.by_tie_break);
  QuorumDecision d2 = EvaluateDynamicQuorum(
      store, SiteSet{2}, TieBreak::kLexicographic, nullptr, *w);
  EXPECT_FALSE(d2.granted);
}

TEST(QuorumTest, WeightedTieUnderPlainAndTopologicalRules) {
  // Non-uniform weights {1, 2, 2, 1} over Section 3's network (A, B on
  // segment alpha; C on gamma; D on delta): total weight 6, and both
  // {A, B} and {C, D} weigh exactly half. The lexicographic rule must
  // resolve the 2*w(counted) == w(Pm) branch identically under the plain
  // and topological vote counts — only the composition of the counted
  // set differs.
  auto topo = Section3Network();
  auto w = VoteWeights::Make({1, 2, 2, 1});
  ASSERT_TRUE(w.ok());
  ReplicaStore store = MustMake(SiteSet{0, 1, 2, 3});

  // Plain rule, group {A, B}: counted = Q = {0, 1}, weight 3 of 6, and
  // max(Pm) = A is reachable: granted by tie-break.
  QuorumDecision ab = EvaluateDynamicQuorum(
      store, SiteSet{0, 1}, TieBreak::kLexicographic, nullptr, *w);
  EXPECT_TRUE(ab.granted);
  EXPECT_TRUE(ab.by_tie_break);
  // Plain rule, group {C, D}: also weight 3 of 6 but without max(Pm):
  // denied — and DV (no tie-break) denies both halves.
  QuorumDecision cd = EvaluateDynamicQuorum(
      store, SiteSet{2, 3}, TieBreak::kLexicographic, nullptr, *w);
  EXPECT_FALSE(cd.granted);
  QuorumDecision dv = EvaluateDynamicQuorum(store, SiteSet{0, 1},
                                            TieBreak::kNone, nullptr, *w);
  EXPECT_FALSE(dv.granted);

  // Topological rule, group {A} alone: A carries segment-mate B, so the
  // counted set is {0, 1} with the same half-weight tie, resolved the
  // same way.
  QuorumDecision a = EvaluateDynamicQuorum(
      store, SiteSet{0}, TieBreak::kLexicographic, topo.get(), *w);
  EXPECT_EQ(a.counted_set, (SiteSet{0, 1}));
  EXPECT_TRUE(a.granted);
  EXPECT_TRUE(a.by_tie_break);
  // Topological rule, group {C, D}: no cross-segment carry, tie without
  // max(Pm): denied.
  QuorumDecision tcd = EvaluateDynamicQuorum(
      store, SiteSet{2, 3}, TieBreak::kLexicographic, topo.get(), *w);
  EXPECT_EQ(tcd.counted_set, (SiteSet{2, 3}));
  EXPECT_FALSE(tcd.granted);
}

TEST(QuorumTest, TopologicalClosureCarriesSegmentMates) {
  // Section 3's motivating case: copies at A, B (same segment alpha).
  // B alone can carry A's vote when A fails, because a live segment
  // never partitions.
  auto topo = Section3Network();
  ReplicaStore store = MustMake(SiteSet{0, 1});  // A, B
  QuorumDecision d = EvaluateDynamicQuorum(
      store, SiteSet{1}, TieBreak::kLexicographic, topo.get());
  EXPECT_EQ(d.counted_set, (SiteSet{0, 1}));  // B plus carried A
  EXPECT_TRUE(d.granted);
  EXPECT_FALSE(d.by_tie_break);
}

TEST(QuorumTest, TopologicalClosureDoesNotCrossSegments) {
  // Copies at A (alpha) and C (gamma): C cannot carry A's vote.
  auto topo = Section3Network();
  ReplicaStore store = MustMake(SiteSet{0, 2});
  QuorumDecision d = EvaluateDynamicQuorum(
      store, SiteSet{2}, TieBreak::kLexicographic, topo.get());
  EXPECT_EQ(d.counted_set, SiteSet{2});
  EXPECT_FALSE(d.granted);  // 1 = half of 2, max (A=0) not in Q
}

TEST(QuorumTest, TopologicalTieStillRequiresMaxInQ) {
  // Figure 5's tie condition reads max(Pm) ∈ Q even in the topological
  // algorithm. Copies A,B on alpha and C,D on gamma/delta: group {C, D}
  // counts only itself (2 = half of 4) and lacks the max element.
  auto topo = Section3Network();
  ReplicaStore store = MustMake(SiteSet{0, 1, 2, 3});
  QuorumDecision d = EvaluateDynamicQuorum(
      store, SiteSet{2, 3}, TieBreak::kLexicographic, topo.get());
  EXPECT_EQ(d.counted_set, (SiteSet{2, 3}));
  EXPECT_FALSE(d.granted);
  // Group {A} carries B (same segment): 2 = half, with max in Q: granted.
  QuorumDecision da = EvaluateDynamicQuorum(
      store, SiteSet{0}, TieBreak::kLexicographic, topo.get());
  EXPECT_EQ(da.counted_set, (SiteSet{0, 1}));
  EXPECT_TRUE(da.granted);
  EXPECT_TRUE(da.by_tie_break);
}

TEST(QuorumTest, TopologicalStaleCarrierIsGrantedLiterally) {
  // A second face of the topological fork hazard (see
  // topological_unsoundness_test.cc): B, a *stale* member, evaluates its
  // own out-of-date Pm = {A,B,C}, carries down segment-mate A, and is
  // granted with T = {A, B} — a majority of the stale block — even though
  // the true lineage moved on to {A, C}. The literal Figure 5 rule has no
  // way to see that; we implement it literally and document the hazard.
  auto topo = Section3Network();
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});  // A, B on alpha; C
  // Lineage advanced to {A, C}; B was down and is stale.
  store.Commit(SiteSet{0, 2}, 3, 2, SiteSet{0, 2});
  QuorumDecision d = EvaluateDynamicQuorum(
      store, SiteSet{1}, TieBreak::kLexicographic, topo.get());
  EXPECT_EQ(d.counted_set, (SiteSet{0, 1}));
  EXPECT_TRUE(d.granted);
  // Without the topological rule the same group is refused — plain LDV
  // keeps the lineage singular.
  QuorumDecision plain =
      EvaluateDynamicQuorum(store, SiteSet{1}, TieBreak::kLexicographic);
  EXPECT_FALSE(plain.granted);
  // Group {C}: Pm = {A, C}; C cannot carry A across segments: tie without
  // max -> denied.
  QuorumDecision dc = EvaluateDynamicQuorum(
      store, SiteSet{2}, TieBreak::kLexicographic, topo.get());
  EXPECT_FALSE(dc.granted);
}

// MCV's static rule under strict majorities (ties fail).
bool StrictMajority(SiteSet reachable, SiteSet placement,
                    VoteWeights weights = {}) {
  McvOptions options;
  options.weights = std::move(weights);
  options.tie_break = TieBreak::kNone;
  auto mcv = MajorityConsensusVoting::Make(placement, std::move(options));
  EXPECT_TRUE(mcv.ok()) << mcv.status();
  return (*mcv)->Grants(reachable, AccessType::kWrite);
}

TEST(StaticMajorityTest, Basics) {
  SiteSet placement{0, 1, 2, 3};
  EXPECT_TRUE(StrictMajority(SiteSet{0, 1, 2}, placement));
  EXPECT_FALSE(StrictMajority(SiteSet{0, 1}, placement));  // exact half
  EXPECT_FALSE(StrictMajority(SiteSet{3}, placement));
  EXPECT_TRUE(StrictMajority(SiteSet{0, 1, 2, 3}, placement));
}

TEST(StaticMajorityTest, Weighted) {
  auto w = VoteWeights::Make({3, 1, 1, 1});
  ASSERT_TRUE(w.ok());
  SiteSet placement{0, 1, 2, 3};
  EXPECT_TRUE(StrictMajority(SiteSet{0, 1}, placement, *w));  // 4 of 6
  EXPECT_FALSE(StrictMajority(SiteSet{1, 2, 3}, placement, *w));
}

}  // namespace
}  // namespace dynvote
