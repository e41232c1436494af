#include "core/dynamic_voting.h"

#include "util/logging.h"

namespace dynvote {

namespace {

std::string DeriveName(const DynamicVotingOptions& options) {
  std::string name;
  if (options.optimistic) name += "O";
  if (options.topological) name += "T";
  name += options.tie_break == TieBreak::kLexicographic && !options.topological
              && !options.optimistic
              ? "LDV"
              : "DV";
  if (options.tie_break == TieBreak::kNone && name != "DV") {
    name += "(no-tie)";
  }
  if (!options.weights.IsUniform()) name = "W" + name;
  if (!options.witnesses.Empty()) name += "+wit";
  return name;
}

}  // namespace

Result<std::unique_ptr<DynamicVoting>> DynamicVoting::Make(
    std::shared_ptr<const Topology> topology, SiteSet placement,
    DynamicVotingOptions options) {
  if (topology == nullptr) {
    return Status::InvalidArgument("topology must not be null");
  }
  if (!placement.IsSubsetOf(topology->AllSites())) {
    return Status::InvalidArgument(
        "placement references sites outside the topology");
  }
  auto store = ReplicaStore::Make(placement);
  if (!store.ok()) return store.status();
  if (!options.witnesses.IsSubsetOf(placement)) {
    return Status::InvalidArgument("witnesses must be placement members");
  }
  if (placement.Minus(options.witnesses).Empty()) {
    return Status::InvalidArgument(
        "at least one placement member must hold data (non-witness)");
  }
  if (!options.weights.Covers(placement)) {
    return Status::InvalidArgument(
        "vote weight table does not cover the placement; pass one entry "
        "per site or use VoteWeights::MakePadded");
  }
  if (options.name.empty()) options.name = DeriveName(options);
  return std::unique_ptr<DynamicVoting>(new DynamicVoting(
      std::move(topology), store.MoveValue(), std::move(options)));
}

DynamicVoting::DynamicVoting(std::shared_ptr<const Topology> topology,
                             ReplicaStore store,
                             DynamicVotingOptions options)
    : topology_(std::move(topology)),
      store_(std::move(store)),
      options_(std::move(options)),
      name_(options_.name) {}

QuorumDecision DynamicVoting::Evaluate(SiteSet group) const {
  const bool memoize = quorum_cache_enabled();
  if (memoize && eval_cache_.valid &&
      eval_cache_.group_mask == group.mask() &&
      eval_cache_.epoch == store_.epoch()) {
    EmitCacheHit(group.mask(), AccessType::kWrite,
                 eval_cache_.decision.granted);
    return eval_cache_.decision;
  }
  QuorumDecision d = EvaluateDynamicQuorum(
      store_, group, options_.tie_break,
      options_.topological ? topology_.get() : nullptr, options_.weights);
  // With witnesses in play, a quorum is usable only if the current version
  // is held by a reachable *data* copy; witnesses can vote but cannot
  // supply the file contents.
  if (d.granted && !options_.witnesses.Empty() &&
      d.current_set.Intersect(data_copies()).Empty()) {
    d.granted = false;
    d.by_tie_break = false;
    d.witness_refused = true;
    d.reason = QuorumReason::kDeniedNoCurrentCopy;
  }
  EmitQuorumDecision(group.mask(), d);
  if (memoize) {
    eval_cache_.valid = true;
    eval_cache_.group_mask = group.mask();
    eval_cache_.epoch = store_.epoch();
    eval_cache_.decision = d;
  }
  return d;
}

bool DynamicVoting::WouldGrant(const NetworkState& net, SiteId origin,
                               AccessType /*type*/) const {
  if (!net.IsSiteUp(origin)) return false;
  return Evaluate(net.ComponentOf(origin)).granted;
}

Status DynamicVoting::Access(const NetworkState& net, SiteId origin,
                             AccessType type) {
  if (!net.IsSiteUp(origin)) {
    return Status::Unavailable("origin site is down");
  }
  SiteSet group = net.ComponentOf(origin);
  SiteSet reachable = store_.CopiesAmong(group);
  counter_.Add(MessageKind::kProbe, store_.placement().Size());
  counter_.Add(MessageKind::kProbeReply, reachable.Size());
  counter_.Add(MessageKind::kStateRequest, reachable.Size());
  counter_.Add(MessageKind::kStateReply, reachable.Size());

  QuorumDecision d = Evaluate(group);
  if (!d.granted) {
    counter_.Add(MessageKind::kAbort, reachable.Size());
    std::string message = name_;
    message.append(": ");
    d.AppendTo(&message);
    return Status::NoQuorum(std::move(message));
  }

  OpNumber op = store_.MaxOp(d.reachable_copies) + 1;
  VersionNumber version = store_.MaxVersion(d.reachable_copies);
  if (type == AccessType::kWrite) ++version;
  // COMMIT(S, o_m + 1, v_m [+1], S): the set of current sites becomes the
  // new partition set — the new majority block.
  store_.Commit(d.current_set, op, version, d.current_set);
  counter_.Add(MessageKind::kCommit, d.current_set.Size());

  CommitInfo info;
  info.kind = type == AccessType::kWrite ? CommitInfo::Kind::kWrite
                                         : CommitInfo::Kind::kRead;
  info.participants = d.current_set;
  // Witnesses never supply contents; pick a current data copy as source.
  info.source = d.current_set.Minus(options_.witnesses).Empty()
                    ? d.representative
                    : d.current_set.Minus(options_.witnesses).RankMax();
  info.version = version;
  NotifyCommit(info);
  return Status::OK();
}

Status DynamicVoting::Read(const NetworkState& net, SiteId origin) {
  return Access(net, origin, AccessType::kRead);
}

Status DynamicVoting::Write(const NetworkState& net, SiteId origin) {
  return Access(net, origin, AccessType::kWrite);
}

Status DynamicVoting::Recover(const NetworkState& net, SiteId site) {
  if (!store_.placement().Contains(site)) {
    return Status::InvalidArgument("recovering site holds no copy");
  }
  if (!net.IsSiteUp(site)) {
    return Status::Unavailable("recovering site is down");
  }
  SiteSet group = net.ComponentOf(site);
  QuorumDecision d = Evaluate(group);
  if (!d.granted) {
    counter_.Add(MessageKind::kAbort, d.reachable_copies.Size());
    if (d.witness_refused) {
      // The group holds the votes but every current copy is a witness: a
      // stale data copy here has no reachable data source to restore
      // from, so the recovery is refused rather than committed with an
      // unreadable file.
      return Status::NoQuorum(
          name_ + ": no reachable data source (current version held only "
                  "by witnesses)");
    }
    return Status::NoQuorum(name_ + ": recovery outside majority partition");
  }

  OpNumber op = store_.MaxOp(d.reachable_copies) + 1;
  VersionNumber version = store_.MaxVersion(d.reachable_copies);
  bool needs_copy = store_.state(site).version < version &&
                    !options_.witnesses.Contains(site);
  SiteSet data_sources = d.current_set.Minus(options_.witnesses);
  // "copy the file from site m" — witnesses have no data to copy, so the
  // transfer is counted exactly when one is delivered below. (A granted
  // decision implies a data copy in S — Evaluate refuses witness-only
  // quorums — but the counter must never drift from the delivery.)
  bool copies_file = needs_copy && !data_sources.Empty();
  if (copies_file) counter_.Add(MessageKind::kFileCopy, 1);
  SiteSet participants = d.current_set.Union(SiteSet{site});
  // COMMIT(S ∪ {l}, o_m + 1, v_m, S ∪ {l}).
  store_.Commit(participants, op, version, participants);
  counter_.Add(MessageKind::kCommit, participants.Size());

  if (copies_file) {
    CommitInfo info;
    info.kind = CommitInfo::Kind::kRecovery;
    info.participants = SiteSet{site};
    info.source = data_sources.RankMax();
    info.version = version;
    NotifyCommit(info);
  }
  return Status::OK();
}

void DynamicVoting::ReintegrateGroup(const NetworkState& net,
                                     SiteSet group) {
  SiteSet copies = store_.CopiesAmong(group);
  if (copies.Empty()) return;
  for (SiteId s : copies) {
    if (store_.state(s).op_number < store_.MaxOp(copies)) {
      Status st = Recover(net, s);
      DYNVOTE_CHECK_MSG(st.ok(),
                        "reintegration inside a granted group must succeed");
    }
  }
}

Status DynamicVoting::UserAccess(const NetworkState& net, AccessType type) {
  // Track the most informative denial across probed groups so a denied
  // access reports why the *closest* group failed, not the emptiest.
  QuorumReason denial = QuorumReason::kDeniedNoCopies;
  for (const SiteSet& group : net.Components()) {
    SiteSet copies = store_.CopiesAmong(group);
    if (copies.Empty()) continue;
    QuorumDecision d = Evaluate(group);
    if (!d.granted) {
      if (DenialSeverity(d.reason) > DenialSeverity(denial)) {
        denial = d.reason;
      }
      continue;
    }
    Status st = Access(net, copies.RankMax(), type);
    if (st.ok()) {
      // Reachable stale copies rejoin now. For the optimistic protocols
      // the access is the only moment state is exchanged; for the
      // instantaneous ones OnNetworkEvent has already done this and the
      // loop finds nothing stale.
      ReintegrateGroup(net, group);
    }
    EmitUserAccessAs(type, st.ok(), copies.RankMax(),
                     st.ok() ? d.reason : denial);
    return st;
  }
  EmitUserAccessAs(type, false, -1, denial);
  return Status::NoQuorum(name_ +
                          ": no group of communicating sites holds a quorum");
}

void DynamicVoting::OnNetworkEvent(const NetworkState& net) {
  if (options_.optimistic) return;  // out-of-date state is the point
  for (const SiteSet& group : net.Components()) {
    SiteSet copies = store_.CopiesAmong(group);
    if (copies.Empty()) continue;
    // The connection vector's monitoring traffic: every copy in the group
    // exchanges state.
    counter_.Add(MessageKind::kInstantRefresh, 2 * copies.Size());
    QuorumDecision d = Evaluate(group);
    if (!d.granted) continue;
    bool membership_current =
        d.current_set == d.prev_partition && copies == d.current_set;
    if (!membership_current) {
      // A state-update operation: the current sites commit the shrunken
      // (or re-grown) majority block, then stale copies reintegrate.
      OpNumber op = store_.MaxOp(d.reachable_copies) + 1;
      VersionNumber version = store_.MaxVersion(d.reachable_copies);
      store_.Commit(d.current_set, op, version, d.current_set);
      counter_.Add(MessageKind::kCommit, d.current_set.Size());
      ReintegrateGroup(net, group);
    }
  }
}

namespace {
Result<std::unique_ptr<DynamicVoting>> MakeNamed(
    std::shared_ptr<const Topology> topology, SiteSet placement,
    TieBreak tie_break, bool topological, bool optimistic) {
  DynamicVotingOptions options;
  options.tie_break = tie_break;
  options.topological = topological;
  options.optimistic = optimistic;
  return DynamicVoting::Make(std::move(topology), placement,
                             std::move(options));
}
}  // namespace

Result<std::unique_ptr<DynamicVoting>> MakeDV(
    std::shared_ptr<const Topology> topology, SiteSet placement) {
  return MakeNamed(std::move(topology), placement, TieBreak::kNone, false,
                   false);
}

Result<std::unique_ptr<DynamicVoting>> MakeLDV(
    std::shared_ptr<const Topology> topology, SiteSet placement) {
  return MakeNamed(std::move(topology), placement, TieBreak::kLexicographic,
                   false, false);
}

Result<std::unique_ptr<DynamicVoting>> MakeODV(
    std::shared_ptr<const Topology> topology, SiteSet placement) {
  return MakeNamed(std::move(topology), placement, TieBreak::kLexicographic,
                   false, true);
}

Result<std::unique_ptr<DynamicVoting>> MakeTDV(
    std::shared_ptr<const Topology> topology, SiteSet placement) {
  return MakeNamed(std::move(topology), placement, TieBreak::kLexicographic,
                   true, false);
}

Result<std::unique_ptr<DynamicVoting>> MakeOTDV(
    std::shared_ptr<const Topology> topology, SiteSet placement) {
  return MakeNamed(std::move(topology), placement, TieBreak::kLexicographic,
                   true, true);
}

}  // namespace dynvote
