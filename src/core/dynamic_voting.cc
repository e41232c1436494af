#include "core/dynamic_voting.h"

#include "core/dynamic_voting_rules.h"

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

ConsistencyProtocol::MemoState DynamicVoting::SaveMemo() const {
  MemoState memo = ConsistencyProtocol::SaveMemo();
  memo.slot_live = eval_cache_.valid && eval_cache_.epoch == store_.epoch();
  memo.slot_mask = eval_cache_.group_mask;
  memo.slot = eval_cache_.decision;
  return memo;
}

void DynamicVoting::RestoreMemo(const MemoState& memo) {
  ConsistencyProtocol::RestoreMemo(memo);
  eval_cache_.valid = memo.slot_live;
  eval_cache_.group_mask = memo.slot_mask;
  eval_cache_.epoch = store_.epoch();
  eval_cache_.decision = memo.slot;
}

struct DynamicVoting::SoloHost {
  DynamicVoting& dv;
  ReplicaStore& store = dv.store_;
  MessageCounter& counter = dv.counter_;
  const DynamicVotingOptions& options = dv.options_;

  QuorumDecision Evaluate(SiteSet group) const { return dv.Evaluate(group); }
  /// The access asks again, as a Read or Write would: through the memo,
  /// so the trace records the decision the access acted on.
  QuorumDecision Confirm(SiteSet group, const QuorumDecision& /*found*/) const {
    return dv.Evaluate(group);
  }
  void Committed(const CommitInfo& info) { dv.NotifyCommit(info); }
};

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
  const QuorumDecision d = Evaluate(net.ComponentOf(origin));
  if (!d.granted) {
    counter_.AddVoteCollection(store_.placement().Size(),
                               d.reachable_copies.Size());
    counter_.Add(MessageKind::kAbort, d.reachable_copies.Size());
    std::string message = name_;
    message.append(": ");
    d.AppendTo(&message);
    return Status::NoQuorum(std::move(message));
  }
  SoloHost host{*this};
  dv_rules::Access(host, d, type);
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
  const QuorumDecision d = Evaluate(net.ComponentOf(site));
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
  SoloHost host{*this};
  dv_rules::Recover(host, d, site);
  return Status::OK();
}

Status DynamicVoting::UserAccess(const NetworkState& net, AccessType type) {
  SoloHost host{*this};
  const dv_rules::UserAccessOutcome outcome =
      dv_rules::UserAccess(host, net, type);
  const bool granted = !outcome.copies.Empty();
  EmitUserAccessAs(type, granted, granted ? outcome.copies.RankMax() : -1,
                   outcome.reason);
  if (granted) return Status::OK();
  return Status::NoQuorum(name_ +
                          ": no group of communicating sites holds a quorum");
}

void DynamicVoting::OnNetworkEvent(const NetworkState& net) {
  if (options_.optimistic) return;  // out-of-date state is the point
  SoloHost host{*this};
  dv_rules::Refresh(host, net);
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
