#include "core/jm_voting.h"

#include <algorithm>

#include "util/append.h"
#include "util/dense_ranks.h"
#include "util/logging.h"

namespace dynvote {

Result<std::unique_ptr<JajodiaMutchlerVoting>> JajodiaMutchlerVoting::Make(
    std::shared_ptr<const Topology> topology, SiteSet placement) {
  if (topology == nullptr) {
    return Status::InvalidArgument("topology must not be null");
  }
  if (placement.Empty() || !placement.IsSubsetOf(topology->AllSites())) {
    return Status::InvalidArgument("placement invalid for this topology");
  }
  return std::unique_ptr<JajodiaMutchlerVoting>(
      new JajodiaMutchlerVoting(std::move(topology), placement));
}

JajodiaMutchlerVoting::JajodiaMutchlerVoting(
    std::shared_ptr<const Topology> topology, SiteSet placement)
    : topology_(std::move(topology)), placement_(placement) {
  Reset();
}

void JajodiaMutchlerVoting::Reset() {
  states_.assign(placement_.RankMin() + 1, JmReplicaState{});
  for (SiteId s : placement_) {
    states_[s] = JmReplicaState{1, placement_.Size(), 1};
  }
  ++epoch_;
}

const JmReplicaState& JajodiaMutchlerVoting::state(SiteId site) const {
  DYNVOTE_CHECK_MSG(placement_.Contains(site), "site holds no copy");
  return states_[site];
}

bool JajodiaMutchlerVoting::AppendStateSignature(std::string* out) const {
  // Update numbers and data versions are monotonic counters; only their
  // relative order matters to the majority test, so emit ranks (the
  // cardinality is an absolute quantity and is emitted raw).
  DenseRanks updates, versions;
  for (SiteId s : placement_) {
    updates.Add(states_[s].update_number);
    versions.Add(states_[s].data_version);
  }
  updates.Seal();
  versions.Seal();
  for (SiteId s : placement_) {
    const JmReplicaState& st = states_[s];
    out->push_back('u');
    AppendDecimal(updates.RankOf(st.update_number), out);
    out->push_back('d');
    AppendDecimal(versions.RankOf(st.data_version), out);
    out->push_back('c');
    AppendDecimal(st.last_cardinality, out);
    out->push_back(';');
  }
  return true;
}

JajodiaMutchlerVoting::Evaluation JajodiaMutchlerVoting::Evaluate(
    SiteSet group) const {
  Evaluation eval;
  eval.reachable = group.Intersect(placement_);
  if (eval.reachable.Empty()) return eval;
  for (SiteId s : eval.reachable) {
    eval.max_update = std::max(eval.max_update, states_[s].update_number);
  }
  for (SiteId s : eval.reachable) {
    if (states_[s].update_number == eval.max_update) eval.current.Add(s);
  }
  eval.cardinality = states_[eval.current.RankMax()].last_cardinality;
  // Strict majority of the recorded cardinality; no tie-break is
  // possible — the identity of a distinguished member is not stored.
  eval.granted = 2 * eval.current.Size() > eval.cardinality;
  return eval;
}

bool JajodiaMutchlerVoting::WouldGrant(const NetworkState& net,
                                       SiteId origin,
                                       AccessType /*type*/) const {
  if (!net.IsSiteUp(origin)) return false;
  return Evaluate(net.ComponentOf(origin)).granted;
}

void JajodiaMutchlerVoting::CommitGroup(const Evaluation& eval,
                                        bool is_write) {
  // All reachable copies are made current: stale members catch up as part
  // of the update, and the cardinality becomes the group size.
  std::int64_t version = 0;
  for (SiteId s : eval.current) {
    version = std::max(version, states_[s].data_version);
  }
  SiteId source = eval.current.RankMax();
  for (SiteId s : eval.reachable) {
    if (states_[s].data_version < version) {
      // Catching up is a real file copy: tell the data layer.
      counter_.Add(MessageKind::kFileCopy, 1);
      CommitInfo info;
      info.kind = CommitInfo::Kind::kRecovery;
      info.participants = SiteSet{s};
      info.source = source;
      info.version = version;
      NotifyCommit(info);
    }
  }
  if (is_write) ++version;
  for (SiteId s : eval.reachable) {
    states_[s].update_number = eval.max_update + 1;
    states_[s].last_cardinality = eval.reachable.Size();
    states_[s].data_version = version;
  }
  ++epoch_;
  counter_.Add(MessageKind::kCommit, eval.reachable.Size());
}

Status JajodiaMutchlerVoting::Access(const NetworkState& net, SiteId origin,
                                     AccessType type) {
  if (!net.IsSiteUp(origin)) {
    return Status::Unavailable("origin site is down");
  }
  SiteSet group = net.ComponentOf(origin);
  Evaluation eval = Evaluate(group);
  counter_.AddVoteCollection(placement_.Size(), eval.reachable.Size());
  if (!eval.granted) {
    counter_.Add(MessageKind::kAbort, eval.reachable.Size());
    return Status::NoQuorum(name_ + ": current copies are not a majority "
                                    "of the last update's cardinality");
  }
  CommitGroup(eval, type == AccessType::kWrite);

  CommitInfo info;
  info.kind = type == AccessType::kWrite ? CommitInfo::Kind::kWrite
                                         : CommitInfo::Kind::kRead;
  info.participants = eval.reachable;
  info.source = eval.current.RankMax();
  info.version = states_[info.source].data_version;
  NotifyCommit(info);
  return Status::OK();
}

Status JajodiaMutchlerVoting::Read(const NetworkState& net, SiteId origin) {
  return Access(net, origin, AccessType::kRead);
}

Status JajodiaMutchlerVoting::Write(const NetworkState& net,
                                    SiteId origin) {
  return Access(net, origin, AccessType::kWrite);
}

Status JajodiaMutchlerVoting::Recover(const NetworkState& net,
                                      SiteId site) {
  if (!placement_.Contains(site)) {
    return Status::InvalidArgument("recovering site holds no copy");
  }
  if (!net.IsSiteUp(site)) {
    return Status::Unavailable("recovering site is down");
  }
  SiteSet group = net.ComponentOf(site);
  Evaluation eval = Evaluate(group);
  if (!eval.granted) {
    return Status::NoQuorum(name_ + ": recovery outside majority");
  }
  // JM recovery is subsumed by the update rule: the whole partition is
  // made current.
  CommitGroup(eval, /*is_write=*/false);
  return Status::OK();
}

void JajodiaMutchlerVoting::OnNetworkEvent(const NetworkState& net) {
  for (const SiteSet& group : net.Components()) {
    Evaluation eval = Evaluate(group);
    if (eval.reachable.Empty()) continue;
    counter_.Add(MessageKind::kInstantRefresh, 2 * eval.reachable.Size());
    if (!eval.granted) continue;
    bool membership_current =
        eval.current == eval.reachable &&
        eval.cardinality == eval.reachable.Size();
    if (!membership_current) CommitGroup(eval, /*is_write=*/false);
  }
}

}  // namespace dynvote
