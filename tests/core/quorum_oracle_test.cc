// Differential oracle for the quorum kernel's uniform-block shortcut.
// EvaluateDynamicQuorum answers Q = S = R without reading a copy when
// the store records that its last commit left R uniform, and otherwise
// computes Q and S in one pass. Over seeded random store histories and
// every group of the paper network, the decision must equal the one
// taken over a copy of the store whose marker was dropped (a no-op
// mutable_state handout), and that one's Q and S must equal the store's
// own scans. Every tie rule, the topological rule and explicit weights
// are covered, and witnesses through DynamicVoting::Evaluate. The
// batched engine's settled-group decision is checked the same way.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_voting.h"
#include "core/dynamic_voting_rules.h"
#include "core/quorum.h"
#include "model/site_profile.h"
#include "net/network_state.h"
#include "repl/replica_store.h"
#include "util/rng.h"
#include "test_text.h"

namespace dynvote {
namespace {

std::shared_ptr<const Topology> PaperTopology() {
  auto paper = MakePaperNetwork();
  EXPECT_TRUE(paper.ok());
  return paper->topology;
}

VoteWeights ExplicitWeights() {
  auto weights = VoteWeights::Make({2, 1, 0, 3, 1, 1, 2, 1});
  EXPECT_TRUE(weights.ok());
  return weights.MoveValue();
}

bool SameDecision(const QuorumDecision& a, const QuorumDecision& b) {
  return a.granted == b.granted && a.by_tie_break == b.by_tie_break &&
         a.witness_refused == b.witness_refused &&
         a.reachable_copies == b.reachable_copies &&
         a.quorum_set == b.quorum_set && a.current_set == b.current_set &&
         a.counted_set == b.counted_set &&
         a.prev_partition == b.prev_partition &&
         a.representative == b.representative && a.reason == b.reason;
}

std::string Describe(const QuorumDecision& d) {
  return testing_util::Cat({d.ToString(), " m=",
                            std::to_string(d.representative), " ",
                            QuorumReasonName(d.reason)});
}

/// `store` with the uniform block forgotten and nothing else changed.
ReplicaStore WithoutMarker(const ReplicaStore& store) {
  ReplicaStore copy = store;
  (void)copy.mutable_state(store.placement().RankMax());
  return copy;
}

SiteSet RandomSubset(Rng* rng, SiteSet universe) {
  return SiteSet::FromMask(rng->Next() & universe.mask());
}

SiteId RandomSite(Rng* rng, SiteSet among) {
  SiteId site;
  do {
    site = static_cast<SiteId>(rng->NextBounded(
        static_cast<std::uint64_t>(among.RankMin()) + 1));
  } while (!among.Contains(site));
  return site;
}

/// One random mutation of `store`: a P = X commit shaped like an access,
/// a recovery or a refresh (participants may name non-copies), a commit
/// whose P is not its participating copies, or a write through
/// mutable_state (sometimes writing nothing).
void RandomStep(Rng* rng, SiteSet universe, ReplicaStore* store) {
  const SiteSet placement = store->placement();
  const SiteSet x = RandomSubset(rng, universe);
  const SiteSet copies = store->CopiesAmong(x);
  const auto small = [&](std::uint64_t bound) {
    return static_cast<std::int64_t>(1 + rng->NextBounded(bound));
  };
  switch (rng->NextBounded(6)) {
    case 0:  // access: COMMIT(S, o_m + 1, v_m [+1], S)
      if (copies.Empty()) return;
      store->Commit(store->MaxVersionSites(copies),
                    store->MaxOp(copies) + 1,
                    store->MaxVersion(copies) + (rng->NextBernoulli(0.5)),
                    store->MaxVersionSites(copies));
      return;
    case 1: {  // recovery: COMMIT(S ∪ {l}, o_m + 1, v_m, S ∪ {l})
      if (copies.Empty()) return;
      SiteSet participants = store->MaxVersionSites(copies);
      participants.Add(RandomSite(rng, placement));
      participants = store->CopiesAmong(participants);
      store->Commit(participants, store->MaxOp(copies) + 1,
                    store->MaxVersion(copies), participants);
      return;
    }
    case 2:  // refresh over X, non-copies included: P = X ∩ placement
      store->Commit(x, small(8), small(4), copies);
      return;
    case 3:  // P != X
      store->Commit(x, small(8), small(4), RandomSubset(rng, universe));
      return;
    case 4:  // P = X but naming the non-copies too
      store->Commit(x, small(8), small(4), x);
      return;
    default: {  // direct write, or a handout that writes nothing
      ReplicaState* state = store->mutable_state(RandomSite(rng, placement));
      if (rng->NextBernoulli(0.25)) return;
      state->op_number = small(8);
      state->version = small(4);
      state->partition_set =
          rng->NextBernoulli(0.5) ? copies : RandomSubset(rng, universe);
      return;
    }
  }
}

struct Rule {
  TieBreak tie_break;
  bool topological;
  bool weighted;
};

std::vector<Rule> AllRules() {
  std::vector<Rule> rules;
  for (TieBreak tie : {TieBreak::kNone, TieBreak::kLexicographic}) {
    for (bool topological : {false, true}) {
      for (bool weighted : {false, true}) {
        rules.push_back(Rule{tie, topological, weighted});
      }
    }
  }
  return rules;
}

TEST(QuorumOracleTest, UniformBlockShortcutMatchesTheFullScan) {
  const std::shared_ptr<const Topology> topology = PaperTopology();
  const SiteSet universe = topology->AllSites();
  ASSERT_EQ(universe.Size(), 8);
  const VoteWeights unit;
  const VoteWeights explicit_weights = ExplicitWeights();
  const std::vector<Rule> rules = AllRules();
  const std::vector<SiteSet> placements = {
      SiteSet{0, 1, 2, 3, 4}, SiteSet{0, 1, 3, 5, 6, 7},
      SiteSet{0, 1, 2, 3, 5, 6, 7}, universe};

  std::uint64_t shortcut_groups = 0;
  std::uint64_t scanned_groups = 0;
  for (SiteSet placement : placements) {
    for (std::uint64_t seed : {11u, 12u}) {
      auto made = ReplicaStore::Make(placement);
      ASSERT_TRUE(made.ok());
      ReplicaStore store = made.MoveValue();
      Rng rng(seed * 1000 + static_cast<std::uint64_t>(placement.mask()));
      for (int step = 0; step < 100; ++step) {
        RandomStep(&rng, universe, &store);
        const ReplicaStore reference = WithoutMarker(store);
        for (std::uint64_t mask = 1; mask <= universe.mask(); ++mask) {
          const SiteSet group = SiteSet::FromMask(mask);
          const SiteSet copies = store.CopiesAmong(group);
          if (copies.Empty()) continue;
          ++(store.UniformOver(copies) ? shortcut_groups : scanned_groups);
          ASSERT_FALSE(reference.UniformOver(copies));
          // Q and S by the store's own scans.
          const OpNumber max_op = store.MaxOp(copies);
          SiteSet q;
          for (SiteId s : copies) {
            if (store.state(s).op_number == max_op) q.Add(s);
          }
          const SiteSet s_set = store.MaxVersionSites(copies);
          for (const Rule& rule : rules) {
            const Topology* topo = rule.topological ? topology.get() : nullptr;
            const VoteWeights& weights =
                rule.weighted ? explicit_weights : unit;
            const QuorumDecision fast = EvaluateDynamicQuorum(
                store, group, rule.tie_break, topo, weights);
            const QuorumDecision slow = EvaluateDynamicQuorum(
                reference, group, rule.tie_break, topo, weights);
            ASSERT_TRUE(SameDecision(fast, slow))
                << "placement " << placement << " seed " << seed << " step "
                << step << " group " << group << "\n  marked:  "
                << Describe(fast) << "\n  scanned: " << Describe(slow);
            ASSERT_EQ(slow.quorum_set, q) << "step " << step;
            ASSERT_EQ(slow.current_set, s_set) << "step " << step;
          }
        }
      }
    }
  }
  // Both paths must actually have been taken.
  EXPECT_GT(shortcut_groups, 1000u);
  EXPECT_GT(scanned_groups, 1000u);
}

// The batched engine's one shortcut (dv_rules::PlainHost, in
// core/dynamic_voting_rules.h): a group R whose copies the last commit
// left uniform with P = R is Settled, and its decision is built without
// an evaluation — granted, with R = Q = S = T = P_m and m = R's
// highest-ranked copy. Over the same random histories, every settled
// group must get exactly that decision from the kernel under every rule,
// including each field the shared reactions read. The one exception is a
// block weighing nothing: 0 > 0 fails, so such a group wins only by the
// lexicographic tie rule. The engine counts unit votes, where no block
// weighs nothing.
TEST(QuorumOracleTest, SettledGroupsGrantWithCurrentMembership) {
  const std::shared_ptr<const Topology> topology = PaperTopology();
  const SiteSet universe = topology->AllSites();
  const VoteWeights unit;
  const VoteWeights explicit_weights = ExplicitWeights();
  const std::vector<Rule> rules = AllRules();
  const std::vector<SiteSet> placements = {
      SiteSet{0, 1, 2, 3, 4}, SiteSet{0, 1, 3, 5, 6, 7},
      SiteSet{0, 1, 2, 3, 5, 6, 7}, universe};

  std::uint64_t settled_groups = 0;
  std::uint64_t proper_subsets = 0;
  for (SiteSet placement : placements) {
    for (std::uint64_t seed : {21u, 22u}) {
      auto made = ReplicaStore::Make(placement);
      ASSERT_TRUE(made.ok());
      ReplicaStore store = made.MoveValue();
      Rng rng(seed * 1000 + static_cast<std::uint64_t>(placement.mask()));
      for (int step = 0; step < 200; ++step) {
        RandomStep(&rng, universe, &store);
        for (std::uint64_t mask = 1; mask <= universe.mask(); ++mask) {
          const SiteSet group = SiteSet::FromMask(mask);
          const SiteSet r = store.CopiesAmong(group);
          if (r.Empty() || !dv_rules::Settled(store, r)) continue;
          const QuorumDecision settled = dv_rules::SettledDecision(r);
          ++settled_groups;
          if (r != placement) ++proper_subsets;
          for (const Rule& rule : rules) {
            const VoteWeights& weights =
                rule.weighted ? explicit_weights : unit;
            const QuorumDecision d = EvaluateDynamicQuorum(
                store, group, rule.tie_break,
                rule.topological ? topology.get() : nullptr, weights);
            const bool weightless = weights.WeightOf(r) == 0;
            ASSERT_EQ(d.granted, !weightless ||
                                     rule.tie_break ==
                                         TieBreak::kLexicographic)
                << "placement " << placement << " seed " << seed << " step "
                << step << " group " << group << ": " << Describe(d);
            ASSERT_EQ(d.representative, r.RankMax()) << Describe(d);
            ASSERT_EQ(d.reachable_copies, r) << Describe(d);
            ASSERT_EQ(d.current_set, r) << Describe(d);
            ASSERT_EQ(d.prev_partition, r) << Describe(d);
            if (!weightless) {
              ASSERT_TRUE(SameDecision(d, settled))
                  << "kernel:  " << Describe(d)
                  << "\n  settled: " << Describe(settled);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(settled_groups, 1000u);
  EXPECT_GT(proper_subsets, 100u);
}

// The witness rule runs after the kernel, in DynamicVoting::Evaluate.
// Drive protocols with witnesses through random network histories and
// check every group against the kernel over a marker-free copy of the
// protocol's store, with the documented witness refusal applied.
TEST(QuorumOracleTest, WitnessDecisionsMatchTheFullScan) {
  const std::shared_ptr<const Topology> topology = PaperTopology();
  const SiteSet universe = topology->AllSites();
  const SiteSet placement{0, 1, 2, 3, 5, 6};
  const SiteSet witnesses{2, 6};

  std::uint64_t shortcut_groups = 0;
  std::uint64_t seed = 0;
  for (const Rule& rule : AllRules()) {
    for (bool optimistic : {false, true}) {
      DynamicVotingOptions options;
      options.tie_break = rule.tie_break;
      options.topological = rule.topological;
      options.optimistic = optimistic;
      options.witnesses = witnesses;
      if (rule.weighted) options.weights = ExplicitWeights();
      auto made = DynamicVoting::Make(topology, placement, options);
      ASSERT_TRUE(made.ok()) << made.status();
      DynamicVoting& dv = **made;
      dv.set_quorum_cache_enabled(false);
      const Topology* topo = rule.topological ? topology.get() : nullptr;

      NetworkState net(topology);
      Rng rng(++seed);
      for (int step = 0; step < 150; ++step) {
        if (rng.NextBernoulli(0.3) && topology->num_repeaters() > 0) {
          net.SetRepeaterUp(
              static_cast<RepeaterId>(
                  rng.NextBounded(topology->num_repeaters())),
              rng.NextBernoulli(0.6));
        } else {
          net.SetSiteUp(RandomSite(&rng, universe), rng.NextBernoulli(0.6));
        }
        dv.OnNetworkEvent(net);
        if (rng.NextBernoulli(0.5)) {
          (void)dv.UserAccess(net, rng.NextBernoulli(0.5) ? AccessType::kWrite
                                                          : AccessType::kRead);
        } else {
          (void)dv.Recover(net, RandomSite(&rng, placement));
        }

        const ReplicaStore reference = WithoutMarker(dv.store());
        for (std::uint64_t mask = 1; mask <= universe.mask(); ++mask) {
          const SiteSet group = SiteSet::FromMask(mask);
          if (dv.store().CopiesAmong(group).Empty()) continue;
          if (dv.store().UniformOver(dv.store().CopiesAmong(group))) {
            ++shortcut_groups;
          }
          QuorumDecision expected = EvaluateDynamicQuorum(
              reference, group, options.tie_break, topo, options.weights);
          if (expected.granted &&
              expected.current_set.Intersect(dv.data_copies()).Empty()) {
            expected.granted = false;
            expected.by_tie_break = false;
            expected.witness_refused = true;
            expected.reason = QuorumReason::kDeniedNoCurrentCopy;
          }
          const QuorumDecision got = dv.Evaluate(group);
          ASSERT_TRUE(SameDecision(got, expected))
              << dv.name() << " step " << step << " group " << group
              << "\n  protocol: " << Describe(got)
              << "\n  scanned:  " << Describe(expected);
        }
      }
    }
  }
  EXPECT_GT(shortcut_groups, 1000u);
}

}  // namespace
}  // namespace dynvote
