#include "core/regenerating.h"

#include "util/logging.h"

namespace dynvote {

Result<std::unique_ptr<RegeneratingVoting>> RegeneratingVoting::Make(
    std::shared_ptr<const Topology> topology, SiteSet data_copies,
    SiteSet initial_witnesses, RegeneratingOptions options) {
  if (topology == nullptr) {
    return Status::InvalidArgument("topology must not be null");
  }
  SiteSet all = topology->AllSites();
  if (data_copies.Empty() || !data_copies.IsSubsetOf(all)) {
    return Status::InvalidArgument("data copies invalid for this topology");
  }
  if (!initial_witnesses.IsSubsetOf(all) ||
      initial_witnesses.Intersects(data_copies)) {
    return Status::InvalidArgument(
        "witnesses must be topology sites disjoint from data copies");
  }
  if (options.regeneration_threshold < 1) {
    return Status::InvalidArgument("regeneration threshold must be >= 1");
  }
  if (!options.witness_hosts.Empty() &&
      !options.witness_hosts.IsSubsetOf(all)) {
    return Status::InvalidArgument("witness hosts outside the topology");
  }
  auto store = ReplicaStore::Make(all);
  if (!store.ok()) return store.status();
  return std::unique_ptr<RegeneratingVoting>(new RegeneratingVoting(
      std::move(topology), store.MoveValue(), data_copies,
      initial_witnesses, std::move(options)));
}

RegeneratingVoting::RegeneratingVoting(
    std::shared_ptr<const Topology> topology, ReplicaStore store,
    SiteSet data_copies, SiteSet initial_witnesses,
    RegeneratingOptions options)
    : topology_(std::move(topology)),
      store_(std::move(store)),
      data_copies_(data_copies),
      initial_witnesses_(initial_witnesses),
      options_(std::move(options)),
      name_(options_.name) {
  Reset();
}

void RegeneratingVoting::Reset() {
  witnesses_ = initial_witnesses_;
  members_ = data_copies_.Union(witnesses_);
  store_.Reset();
  // Initial ensembles: every member starts current with P = membership.
  store_.Commit(topology_->AllSites(), 1, 1, members_);
  miss_count_.assign(topology_->num_sites(), 0);
  regenerations_ = 0;
}

QuorumDecision RegeneratingVoting::Evaluate(SiteSet group) const {
  QuorumDecision d = EvaluateDynamicQuorum(
      store_, group.Intersect(members_), TieBreak::kLexicographic);
  if (d.granted &&
      d.current_set.Intersect(data_copies_).Empty()) {
    // Witnesses locate the current version but cannot produce the data.
    d.granted = false;
    d.by_tie_break = false;
  }
  return d;
}

bool RegeneratingVoting::WouldGrant(const NetworkState& net, SiteId origin,
                                    AccessType /*type*/) const {
  if (!net.IsSiteUp(origin)) return false;
  return Evaluate(net.ComponentOf(origin)).granted;
}

Status RegeneratingVoting::Access(const NetworkState& net, SiteId origin,
                                  AccessType type) {
  if (!net.IsSiteUp(origin)) {
    return Status::Unavailable("origin site is down");
  }
  SiteSet group = net.ComponentOf(origin);
  QuorumDecision d = Evaluate(group);
  counter_.Add(MessageKind::kProbe, members_.Size());
  counter_.Add(MessageKind::kProbeReply, d.reachable_copies.Size());
  if (!d.granted) {
    counter_.Add(MessageKind::kAbort, d.reachable_copies.Size());
    return Status::NoQuorum(name_ + ": " + d.ToString());
  }
  OpNumber op = store_.state(d.representative).op_number + 1;
  VersionNumber version = store_.state(d.current_set.RankMax()).version;
  if (type == AccessType::kWrite) ++version;
  store_.Commit(d.current_set, op, version, d.current_set);
  counter_.Add(MessageKind::kCommit, d.current_set.Size());

  CommitInfo info;
  info.kind = type == AccessType::kWrite ? CommitInfo::Kind::kWrite
                                         : CommitInfo::Kind::kRead;
  info.participants = d.current_set;
  SiteSet data_sources = d.current_set.Intersect(data_copies_);
  info.source = data_sources.RankMax();
  info.version = version;
  NotifyCommit(info);
  return Status::OK();
}

Status RegeneratingVoting::Read(const NetworkState& net, SiteId origin) {
  return Access(net, origin, AccessType::kRead);
}

Status RegeneratingVoting::Write(const NetworkState& net, SiteId origin) {
  return Access(net, origin, AccessType::kWrite);
}

Status RegeneratingVoting::Recover(const NetworkState& net, SiteId site) {
  if (!members_.Contains(site)) {
    return Status::InvalidArgument(
        "recovering site is not a current member");
  }
  if (!net.IsSiteUp(site)) {
    return Status::Unavailable("recovering site is down");
  }
  SiteSet group = net.ComponentOf(site);
  QuorumDecision d = Evaluate(group);
  if (!d.granted) {
    return Status::NoQuorum(name_ + ": recovery outside majority");
  }
  OpNumber op = store_.state(d.representative).op_number + 1;
  VersionNumber version = store_.state(d.current_set.RankMax()).version;
  bool needs_copy = store_.state(site).version < version &&
                    data_copies_.Contains(site);
  if (needs_copy) counter_.Add(MessageKind::kFileCopy, 1);
  SiteSet participants = d.current_set.Union(SiteSet{site});
  store_.Commit(participants, op, version, participants);
  counter_.Add(MessageKind::kCommit, participants.Size());
  if (needs_copy) {
    CommitInfo info;
    info.kind = CommitInfo::Kind::kRecovery;
    info.participants = SiteSet{site};
    info.source = d.current_set.Intersect(data_copies_).RankMax();
    info.version = version;
    NotifyCommit(info);
  }
  return Status::OK();
}

void RegeneratingVoting::ReintegrateGroup(const NetworkState& net,
                                          SiteSet group) {
  SiteSet reachable = group.Intersect(members_);
  for (SiteId s : reachable) {
    if (store_.state(s).op_number < store_.MaxOp(reachable)) {
      Status st = Recover(net, s);
      DYNVOTE_CHECK_MSG(st.ok(), "member reintegration must succeed");
    }
  }
}

void RegeneratingVoting::MaybeRegenerate(const NetworkState& /*net*/,
                                         SiteSet group) {
  // Update consecutive-miss counters: only the majority block observes
  // and acts, so this runs once per network event.
  SiteSet missing = members_.Minus(group);
  for (SiteId m : members_) {
    miss_count_[m] = missing.Contains(m) ? miss_count_[m] + 1 : 0;
  }

  SiteSet hosts = options_.witness_hosts;
  if (hosts.Empty()) {
    // Default host pool: any site not holding data, EXCLUDING gateway
    // hosts. A witness on a gateway couples two failure modes: the
    // gateway crashing removes the witness's vote *and* partitions every
    // copy behind it, turning one failure into a lost quorum (the same
    // reason Section 3 treats gateway hosts specially).
    hosts = topology_->AllSites().Minus(data_copies_);
    for (const BridgeInfo& bridge : topology_->bridges()) {
      if (bridge.gateway_site.has_value()) {
        hosts.Remove(*bridge.gateway_site);
      }
    }
  }
  for (SiteId w : witnesses_) {
    if (miss_count_[w] < options_.regeneration_threshold) continue;
    SiteSet candidates =
        group.Intersect(hosts).Minus(members_);
    if (candidates.Empty()) continue;  // nowhere to regenerate
    SiteId replacement = candidates.RankMax();

    witnesses_.Remove(w);
    members_.Remove(w);
    witnesses_.Add(replacement);
    members_.Add(replacement);
    miss_count_[replacement] = 0;
    ++regenerations_;

    // Commit the new membership through the ordinary machinery: the
    // block (including the fresh witness) becomes the partition set.
    SiteSet block = group.Intersect(members_);
    OpNumber op = store_.MaxOp(block.Union(SiteSet{replacement})) + 1;
    VersionNumber version = store_.MaxVersion(block);
    store_.Commit(block, op, version, block);
    counter_.Add(MessageKind::kCommit, block.Size());
  }
}

void RegeneratingVoting::OnNetworkEvent(const NetworkState& net) {
  for (const SiteSet& group : net.Components()) {
    SiteSet reachable = group.Intersect(members_);
    if (reachable.Empty()) continue;
    counter_.Add(MessageKind::kInstantRefresh, 2 * reachable.Size());
    QuorumDecision d = Evaluate(group);
    if (!d.granted) continue;
    bool membership_current =
        d.current_set == d.prev_partition && reachable == d.current_set;
    if (!membership_current) {
      OpNumber op = store_.state(d.representative).op_number + 1;
      VersionNumber version = store_.state(d.current_set.RankMax()).version;
      store_.Commit(d.current_set, op, version, d.current_set);
      counter_.Add(MessageKind::kCommit, d.current_set.Size());
      ReintegrateGroup(net, group);
    }
    // Mutual exclusion guarantees at most one granted group per event, so
    // the regeneration pass (and its miss counters) runs at most once.
    MaybeRegenerate(net, group);
  }
}

}  // namespace dynvote
