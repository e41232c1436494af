// Algorithm 1's reactions (Figures 1-3 and 5-7, and the instantaneous
// variants' connection-vector refresh), written once for both simulation
// engines as function templates over a host that holds one dynamic
// voting protocol's state:
//
//   ReplicaStore& store;                      the copies' (o, v, P)
//   MessageCounter& counter;                  the protocol's traffic
//   const DynamicVotingOptions& options;
//   QuorumDecision Evaluate(SiteSet group);   the majority-partition test
//   QuorumDecision Confirm(SiteSet group, const QuorumDecision& found);
//                                             the decision an access acts
//                                             on, once `found` granted it
//   void Committed(const CommitInfo& info);   a commit moved data
//
// DynamicVoting is the solo host: its Evaluate memoizes, refuses
// witness-only quorums and emits the trace and metrics; Confirm asks
// again through the memo, so a trace records the access's own decision;
// Committed fires the commit hook. PlainHost, below, is the batched
// engine's. Hosts are template parameters, so every hook inlines.

#pragma once

#include "core/dynamic_voting.h"
#include "core/protocol.h"
#include "core/quorum.h"
#include "net/network_state.h"
#include "repl/message_bus.h"
#include "repl/replica_store.h"
#include "util/logging.h"
#include "util/site_set.h"

namespace dynvote::dv_rules {

/// COMMIT(P, o_m + 1, v_m + bump, P) in a group `d` granted, with P =
/// `participants`: they become the new majority block. Returns the
/// version committed.
template <typename Host>
VersionNumber Commit(Host& host, const QuorumDecision& d,
                     SiteSet participants, VersionNumber bump) {
  // o_m and v_m: m carries the maximal op number, every member of S the
  // maximal version.
  const OpNumber op = host.store.state(d.representative).op_number + 1;
  const VersionNumber version =
      host.store.state(d.current_set.RankMax()).version + bump;
  host.store.Commit(participants, op, version, participants);
  host.counter.Add(MessageKind::kCommit, participants.Size());
  return version;
}

/// Figures 1-2 / 5-6 in a group `d` granted: the vote collection, then
/// COMMIT(S, o_m + 1, v_m [+1], S).
template <typename Host>
void Access(Host& host, const QuorumDecision& d, AccessType type) {
  host.counter.AddVoteCollection(host.store.placement().Size(),
                                 d.reachable_copies.Size());
  const bool write = type == AccessType::kWrite;
  CommitInfo info;
  info.kind = write ? CommitInfo::Kind::kWrite : CommitInfo::Kind::kRead;
  info.participants = d.current_set;
  // Witnesses never supply contents; pick a current data copy as source.
  const SiteSet data_sources = d.current_set.Minus(host.options.witnesses);
  info.source =
      data_sources.Empty() ? d.representative : data_sources.RankMax();
  info.version = Commit(host, d, d.current_set, write ? 1 : 0);
  host.Committed(info);
}

/// Figure 3 / 7 RECOVER of copy `site` in a group `d` granted:
/// COMMIT(S ∪ {l}, o_m + 1, v_m, S ∪ {l}), copying the file from a
/// current data copy if `site` is a stale data copy.
template <typename Host>
void Recover(Host& host, const QuorumDecision& d, SiteId site) {
  const SiteSet witnesses = host.options.witnesses;
  const VersionNumber version =
      host.store.state(d.current_set.RankMax()).version;
  // "copy the file from site m" — witnesses have no data to copy, so the
  // transfer is counted exactly when one is delivered. (A granted
  // decision implies a data copy in S — DynamicVoting::Evaluate refuses
  // witness-only quorums — but the counter must never drift from the
  // delivery.)
  const SiteSet data_sources = d.current_set.Minus(witnesses);
  const bool copies_file = host.store.state(site).version < version &&
                           !witnesses.Contains(site) && !data_sources.Empty();
  if (copies_file) host.counter.Add(MessageKind::kFileCopy, 1);
  Commit(host, d, d.current_set.Union(SiteSet{site}), 0);
  if (copies_file) {
    CommitInfo info;
    info.kind = CommitInfo::Kind::kRecovery;
    info.participants = SiteSet{site};
    info.source = data_sources.RankMax();
    info.version = version;
    host.Committed(info);
  }
}

/// Reintegrates every stale copy in `group`, a group of communicating
/// sites the host has just granted: RECOVER, run back to back for each.
template <typename Host>
void ReintegrateGroup(Host& host, SiteSet group) {
  const ReplicaStore& store = host.store;
  const SiteSet copies = store.CopiesAmong(group);
  // Uniform over the group: every copy already carries the maximal op
  // number, so there is nothing stale to recover.
  if (store.UniformOver(copies)) return;
  // MaxOp over the group moves only when a recover commits.
  OpNumber max_op = store.MaxOp(copies);
  for (SiteId site : copies) {
    if (store.state(site).op_number < max_op) {
      const QuorumDecision d = host.Evaluate(group);
      DYNVOTE_CHECK_MSG(d.granted,
                        "reintegration inside a granted group must succeed");
      Recover(host, d, site);
      max_op = store.MaxOp(copies);
    }
  }
}

/// What a user access came to: the copies of the group that granted it
/// (empty if none did) and the reason — the grant's, or the most
/// informative denial among the groups probed.
struct UserAccessOutcome {
  SiteSet copies;
  QuorumReason reason = QuorumReason::kDeniedNoCopies;
};

/// The paper's single-user access: it runs in the first group of
/// communicating sites that holds a quorum, and then that group's
/// reachable stale copies rejoin. For the optimistic protocols the access
/// is the only moment state is exchanged; for the instantaneous ones
/// Refresh has already reintegrated every granted group and the loop
/// finds nothing stale.
template <typename Host>
UserAccessOutcome UserAccess(Host& host, const NetworkState& net,
                             AccessType type) {
  UserAccessOutcome outcome;
  for (const SiteSet& group : net.Components()) {
    const SiteSet copies = host.store.CopiesAmong(group);
    if (copies.Empty()) continue;
    const QuorumDecision d = host.Evaluate(group);
    if (!d.granted) {
      if (DenialSeverity(d.reason) > DenialSeverity(outcome.reason)) {
        outcome.reason = d.reason;
      }
      continue;
    }
    Access(host, host.Confirm(group, d), type);
    ReintegrateGroup(host, group);
    outcome.copies = copies;
    outcome.reason = d.reason;
    return outcome;
  }
  return outcome;
}

/// The instantaneous variants' reaction to a change of network status,
/// the simulated connection vector: every copy in every group exchanges
/// state, and a granted group whose membership moved commits its new
/// majority block, then reintegrates its stale copies.
template <typename Host>
void Refresh(Host& host, const NetworkState& net) {
  for (const SiteSet& group : net.Components()) {
    const SiteSet copies = host.store.CopiesAmong(group);
    if (copies.Empty()) continue;
    host.counter.Add(MessageKind::kInstantRefresh, 2 * copies.Size());
    const QuorumDecision d = host.Evaluate(group);
    if (!d.granted) continue;
    if (d.current_set == d.prev_partition && copies == d.current_set) {
      continue;  // membership is current
    }
    // A state-update operation: the current sites commit the shrunken
    // (or re-grown) majority block.
    Commit(host, d, d.current_set, 0);
    ReintegrateGroup(host, group);
  }
}

/// True iff the last commit left every copy of the non-empty `copies`
/// with one ensemble whose P is exactly `copies` ("settled"): S = R =
/// P_m, so the group grants and its membership is current.
inline bool Settled(const ReplicaStore& store, SiteSet copies) {
  return store.UniformOver(copies) &&
         store.state(copies.RankMax()).partition_set == copies;
}

/// The decision EvaluateDynamicQuorum takes over a settled group, built
/// without an evaluation: every set it names is the group's copies, and
/// the block wins by majority. Exact whenever the copies weigh more than
/// nothing (QuorumOracleTest.SettledGroupsGrantWithCurrentMembership).
inline QuorumDecision SettledDecision(SiteSet copies) {
  QuorumDecision d;
  d.granted = true;
  d.reachable_copies = d.quorum_set = d.current_set = copies;
  d.counted_set = d.prev_partition = copies;
  d.representative = copies.RankMax();
  d.reason = QuorumReason::kGrantedMajority;
  return d;
}

/// The host without memo or emission, over state the caller owns: the
/// batched engine's. Evaluate is the plain kernel behind the
/// settled-group shortcut, which needs unit votes, so `options` must
/// carry uniform weights and no witnesses (the paper's five policies).
struct PlainHost {
  ReplicaStore& store;
  MessageCounter& counter;
  const DynamicVotingOptions& options;
  /// The topology when options.topological, else null.
  const Topology* vote_topology;

  QuorumDecision Evaluate(SiteSet group) const {
    const SiteSet copies = store.CopiesAmong(group);
    if (Settled(store, copies)) return SettledDecision(copies);
    return EvaluateDynamicQuorum(store, group, options.tie_break,
                                 vote_topology, options.weights);
  }
  /// Nothing moved since `found` was taken, so the access acts on it.
  QuorumDecision Confirm(SiteSet /*group*/,
                         const QuorumDecision& found) const {
    return found;
  }
  void Committed(const CommitInfo& /*info*/) {}
};

}  // namespace dynvote::dv_rules
