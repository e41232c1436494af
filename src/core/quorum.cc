#include "core/quorum.h"

#include "util/logging.h"

namespace dynvote {

Result<VoteWeights> VoteWeights::Make(std::vector<int> weights) {
  for (int w : weights) {
    if (w < 0) return Status::InvalidArgument("vote weights must be >= 0");
  }
  return VoteWeights(std::move(weights));
}

Result<VoteWeights> VoteWeights::MakePadded(std::vector<int> weights,
                                            int num_sites) {
  if (num_sites < static_cast<int>(weights.size())) {
    return Status::InvalidArgument(
        "weight table longer than the site count it should pad to");
  }
  for (int w : weights) {
    if (w < 0) return Status::InvalidArgument("vote weights must be >= 0");
  }
  weights.resize(static_cast<std::size_t>(num_sites), 1);
  return VoteWeights(std::move(weights));
}

VoteWeights::VoteWeights(std::vector<int> weights)
    : weights_(std::move(weights)),
      covered_(SiteSet::FirstN(static_cast<int>(weights_.size()))) {
  for (int w : weights_) total_ += w;
}

int VoteWeights::WeightOf(SiteId site) const {
  if (weights_.empty()) return 1;
  DYNVOTE_CHECK_MSG(
      site >= 0 && site < static_cast<SiteId>(weights_.size()),
      "site " + std::to_string(site) + " has no entry in a " +
          std::to_string(weights_.size()) + "-entry vote weight table");
  return weights_[site];
}

long long VoteWeights::TableWeightOf(SiteSet sites) const {
  DYNVOTE_CHECK_MSG(Covers(sites), "some site in " + sites.ToString() +
                                       " has no entry in the vote weight "
                                       "table");
  if (sites == covered_) return total_;
  long long total = 0;
  for (SiteId s : sites) total += weights_[s];
  return total;
}

long long VoteWeights::TotalWeight() const {
  DYNVOTE_CHECK_MSG(!weights_.empty(),
                    "TotalWeight of a uniform table is unbounded");
  return total_;
}

void QuorumDecision::AppendTo(std::string* out) const {
  out->append(granted ? "GRANTED" : "DENIED");
  if (by_tie_break) out->append(" (tie-break)");
  if (witness_refused) out->append(" (witness-refused)");
  out->append(" R=");
  reachable_copies.AppendTo(out);
  out->append(" Q=");
  quorum_set.AppendTo(out);
  out->append(" S=");
  current_set.AppendTo(out);
  out->append(" counted=");
  counted_set.AppendTo(out);
  out->append(" Pm=");
  prev_partition.AppendTo(out);
}

std::string QuorumDecision::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

QuorumDecision EvaluateDynamicQuorum(const ReplicaStore& store,
                                     SiteSet reachable, TieBreak tie_break,
                                     const Topology* topology,
                                     const VoteWeights& weights) {
  QuorumDecision d;
  d.reachable_copies = store.CopiesAmong(reachable);
  if (d.reachable_copies.Empty()) return d;

  if (store.UniformOver(d.reachable_copies)) {
    // Every copy in R carries the last commit's (o, v): all are maximal.
    d.quorum_set = d.reachable_copies;
    d.current_set = d.reachable_copies;
  } else {
    // Q and S in one pass over R.
    OpNumber max_op = 0;
    VersionNumber max_version = 0;
    for (SiteId s : d.reachable_copies) {
      const ReplicaState& st = store.state(s);
      if (d.quorum_set.Empty() || st.op_number > max_op) {
        max_op = st.op_number;
        d.quorum_set = SiteSet{s};
      } else if (st.op_number == max_op) {
        d.quorum_set.Add(s);
      }
      if (d.current_set.Empty() || st.version > max_version) {
        max_version = st.version;
        d.current_set = SiteSet{s};
      } else if (st.version == max_version) {
        d.current_set.Add(s);
      }
    }
  }
  d.representative = d.quorum_set.RankMax();
  d.prev_partition = store.state(d.representative).partition_set;

  // Votes counted toward the majority test. The plain algorithms count Q;
  // the topological algorithms count T, Q's closure under "same segment
  // as a reachable member of the previous majority block".
  d.counted_set = d.quorum_set;
  if (topology != nullptr) {
    // T = Pm ∩ (union of the home segments of Pm's active members): a
    // reachable member of the previous block carries the votes of every
    // block member on its own segment. One mask union per active member
    // replaces the historical O(|Pm|·|active|) site-pair loop.
    SiteSet active_members = d.prev_partition.Intersect(d.reachable_copies);
    SiteSet active_segments;
    for (SiteId s : active_members) {
      active_segments = active_segments.Union(
          topology->SitesOnSegment(topology->SegmentOf(s)));
    }
    d.counted_set = d.prev_partition.Intersect(active_segments);
  }

  // |counted| > |Pm| / 2, with weighted votes: compare 2*w(counted) to
  // w(Pm) in integers to avoid fractional arithmetic.
  long long counted_weight = weights.WeightOf(d.counted_set);
  long long block_weight = weights.WeightOf(d.prev_partition);
  // Tie rule: exactly half the previous block grants iff the group holds
  // the maximum element of Pm. Per Figures 1-3 and 5-7 the element must
  // be in Q (reachable with the maximal operation number), even under the
  // topological rule. Evaluated lazily — the strict-majority fast path
  // never needs it.
  auto tie_wins = [&] {
    return tie_break == TieBreak::kLexicographic &&
           !d.prev_partition.Empty() &&
           d.quorum_set.Contains(d.prev_partition.RankMax());
  };
  if (2 * counted_weight > block_weight) {
    d.granted = true;
    d.reason = QuorumReason::kGrantedMajority;
  } else if (2 * counted_weight == block_weight) {
    if (tie_wins()) {
      d.granted = true;
      d.by_tie_break = true;
      d.reason = QuorumReason::kGrantedTieLex;
    } else {
      d.reason = QuorumReason::kDeniedTieLost;
    }
  } else {
    d.reason = QuorumReason::kDeniedMinority;
  }
  if (d.granted && d.counted_set != d.quorum_set) {
    // The carry was decisive iff counting Q alone (the tie condition
    // already depends only on Q) would have denied.
    long long q_weight = weights.WeightOf(d.quorum_set);
    bool q_only_granted = 2 * q_weight > block_weight ||
                          (2 * q_weight == block_weight && tie_wins());
    if (!q_only_granted) d.reason = QuorumReason::kGrantedTopologicalCarry;
  }
  return d;
}

}  // namespace dynvote
