// The quorum test at the heart of every dynamic voting variant in the
// paper (Algorithm 1, Figures 1-3 and 5-7), implemented as a pure function
// over replica state so that all protocol classes, the simulation driver
// and the property tests share one definition.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/topology.h"
#include "obs/reason.h"
#include "repl/replica_store.h"
#include "util/result.h"
#include "util/site_set.h"

namespace dynvote {

/// How a tie (exactly half of the previous majority block reachable) is
/// resolved.
enum class TieBreak {
  /// Original Davčev-Burkhard dynamic voting: ties fail.
  kNone,
  /// Jajodia's lexicographic rule: the half containing the maximum element
  /// of the previous majority block wins. Site ids rank by SiteSet's
  /// convention (lower id = higher rank).
  kLexicographic,
};

/// Per-site vote weights (the paper's future-work "weight assignments").
/// Default-constructed weights give every site one vote, which reproduces
/// the unweighted algorithms exactly.
class VoteWeights {
 public:
  /// Every site weighs 1.
  VoteWeights() = default;

  /// Explicit weights, one entry per site id starting at 0. All weights
  /// must be >= 0, and at least one site in any placement should weigh
  /// > 0 for the protocols to be usable. The table covers exactly the
  /// sites it names: asking for the weight of a site beyond it is a
  /// contract violation (historically it silently returned 1, which let a
  /// one-entry-short table flip grant/deny decisions — see
  /// tests/core/quorum_test.cc). Protocol factories reject weight tables
  /// that do not cover their placement; use MakePadded to opt in to
  /// filling the gap with ones explicitly.
  static Result<VoteWeights> Make(std::vector<int> weights);

  /// Like Make, but explicitly pads the table with weight-1 entries up to
  /// `num_sites` entries. Rejects a table longer than `num_sites`.
  static Result<VoteWeights> MakePadded(std::vector<int> weights,
                                        int num_sites);

  /// True iff every site in `sites` has an explicit entry (uniform
  /// weights cover everything). O(1): a mask comparison.
  bool Covers(SiteSet sites) const {
    return weights_.empty() || sites.IsSubsetOf(covered_);
  }

  /// Weight of one site. CHECK-fails for a site a non-uniform table does
  /// not cover.
  int WeightOf(SiteId site) const;

  /// Total weight of a set. CHECK-fails unless Covers(sites). Unit
  /// weights reduce to a popcount; a set covering the whole table returns
  /// the cached total without iterating.
  long long WeightOf(SiteSet sites) const;

  /// Cached sum over the whole table. Only meaningful for non-uniform
  /// weights (a uniform table is unbounded); CHECK-fails otherwise.
  long long TotalWeight() const;

  bool IsUniform() const { return weights_.empty(); }

 private:
  explicit VoteWeights(std::vector<int> weights);
  std::vector<int> weights_;  // empty = all ones
  SiteSet covered_;           // sites with an explicit entry
  long long total_ = 0;       // cached sum of weights_
};

/// Outcome of the majority-partition test for one group of mutually
/// communicating sites.
struct QuorumDecision {
  /// True iff the group is the majority partition and may proceed.
  bool granted = false;
  /// True iff the grant needed the lexicographic tie-break.
  bool by_tie_break = false;
  /// True iff the raw vote count granted but the decision was refused
  /// because the current version is held only by reachable witnesses —
  /// there is no data source to read or copy from (set by
  /// DynamicVoting::Evaluate, never by EvaluateDynamicQuorum itself).
  bool witness_refused = false;
  /// R ∩ placement: reachable physical copies.
  SiteSet reachable_copies;
  /// Q: reachable copies carrying the maximal operation number.
  SiteSet quorum_set;
  /// S: reachable copies carrying the maximal version number.
  SiteSet current_set;
  /// The votes actually counted: Q itself, or the topological closure T
  /// (Q plus unreachable members of P_m sharing a segment with a
  /// reachable member of P_m).
  SiteSet counted_set;
  /// P_m: the previous majority block, read from any member of Q.
  SiteSet prev_partition;
  /// m: the member of Q whose ensemble was used.
  SiteId representative = -1;
  /// Which rule of the paper produced the outcome. In particular,
  /// kGrantedTopologicalCarry means the vote-carrying closure T was
  /// decisive: counting Q alone would have denied this group.
  QuorumReason reason = QuorumReason::kDeniedNoCopies;

  /// "DENIED R={0, 1} Q={0} S={0, 1} counted={0} Pm={0, 3}".
  std::string ToString() const;
  /// Appends ToString()'s text to `out` without temporaries.
  void AppendTo(std::string* out) const;
};

/// Evaluates the paper's majority-partition test for the sites `reachable`
/// (the group of mutually communicating sites containing the requester;
/// non-copy members are ignored).
///
/// * `tie_break` selects DV (kNone) vs LDV/ODV behaviour.
/// * If `topology` is non-null the topological rule of Section 3 is used:
///   a reachable member of the previous majority block carries the votes
///   of unreachable members on its own segment (TDV/OTDV). The paper
///   prints the carrier condition as `s ∈ Pm ∪ R`; we implement the
///   evident intent `s ∈ Pm ∩ R` — only an *active* member of the previous
///   block may carry votes.
/// * `weights` generalises vote counting to weighted votes.
///
/// Returns a decision with granted == false when `reachable` holds no
/// copies.
QuorumDecision EvaluateDynamicQuorum(const ReplicaStore& store,
                                     SiteSet reachable, TieBreak tie_break,
                                     const Topology* topology = nullptr,
                                     const VoteWeights& weights = {});

/// Static majority test used by Majority Consensus Voting: does
/// `reachable` contain more than half of the total vote weight of
/// `placement`? No tie-break — MCV cannot resolve ties without dynamic
/// state.
bool HasStaticMajority(SiteSet reachable, SiteSet placement,
                       const VoteWeights& weights = {});

}  // namespace dynvote
