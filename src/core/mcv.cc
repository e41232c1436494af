#include "core/mcv.h"

namespace dynvote {

Result<std::unique_ptr<MajorityConsensusVoting>> MajorityConsensusVoting::Make(
    SiteSet placement, McvOptions options) {
  auto store = ReplicaStore::Make(placement);
  if (!store.ok()) return store.status();

  if (!options.weights.Covers(placement)) {
    return Status::InvalidArgument(
        "vote weight table does not cover the placement; pass one entry "
        "per site or use VoteWeights::MakePadded");
  }
  long long total = options.weights.WeightOf(placement);
  if (total <= 0) {
    return Status::InvalidArgument("placement has zero total vote weight");
  }
  long long majority = total / 2 + 1;
  long long r = options.read_quorum.value_or(majority);
  long long w = options.write_quorum.value_or(majority);
  if (r < 1 || w < 1 || r > total || w > total) {
    return Status::InvalidArgument("quorum outside [1, total weight]");
  }
  if (r + w <= total) {
    return Status::InvalidArgument(
        "read and write quorums must overlap: r + w > total weight");
  }
  if (2 * w <= total) {
    return Status::InvalidArgument(
        "write quorums must overlap: 2w > total weight");
  }
  if (options.name.empty()) {
    options.name = options.weights.IsUniform() ? "MCV" : "WMCV";
  }
  return std::unique_ptr<MajorityConsensusVoting>(new MajorityConsensusVoting(
      store.MoveValue(), std::move(options), r, w));
}

MajorityConsensusVoting::MajorityConsensusVoting(ReplicaStore store,
                                                 McvOptions options,
                                                 long long r, long long w)
    : store_(std::move(store)),
      weights_(std::move(options.weights)),
      tie_break_(options.tie_break),
      read_quorum_(r),
      write_quorum_(w),
      explicit_quorums_(options.read_quorum.has_value() ||
                        options.write_quorum.has_value()),
      name_(std::move(options.name)) {}

SiteSet MajorityConsensusVoting::ReachableCopies(const NetworkState& net,
                                                 SiteId origin) const {
  return net.ComponentOf(origin).Intersect(store_.placement());
}

bool MajorityConsensusVoting::WouldGrant(const NetworkState& net,
                                         SiteId origin,
                                         AccessType type) const {
  return net.IsSiteUp(origin) && Grants(ReachableCopies(net, origin), type);
}

QuorumReason MajorityConsensusVoting::ClassifyUserAccess(
    const NetworkState& net, AccessType type, bool granted,
    SiteId origin) const {
  long long needed =
      type == AccessType::kWrite ? write_quorum_ : read_quorum_;
  if (granted) {
    long long votes = weights_.WeightOf(ReachableCopies(net, origin));
    return votes >= needed ? QuorumReason::kGrantedMajority
                           : QuorumReason::kGrantedTieLex;
  }
  QuorumReason denial = QuorumReason::kDeniedNoCopies;
  for (const SiteSet& group : net.Components()) {
    SiteSet copies = group.Intersect(store_.placement());
    if (copies.Empty()) continue;
    long long votes = weights_.WeightOf(copies);
    QuorumReason reason =
        !explicit_quorums_ &&
                2 * votes == weights_.WeightOf(store_.placement())
            ? QuorumReason::kDeniedTieLost
            : QuorumReason::kDeniedMinority;
    if (DenialSeverity(reason) > DenialSeverity(denial)) denial = reason;
  }
  return denial;
}

Status MajorityConsensusVoting::Access(const NetworkState& net,
                                       SiteId origin, AccessType type) {
  if (!net.IsSiteUp(origin)) {
    return Status::Unavailable("origin site is down");
  }
  SiteSet reachable = ReachableCopies(net, origin);
  if (!Grants(reachable, type)) {
    counter_.AddVoteCollection(store_.placement().Size(), reachable.Size());
    counter_.Add(MessageKind::kAbort, reachable.Size());
    return Status::NoQuorum(name_ + ": fewer votes than the static quorum");
  }
  ChargeGrantedAccess(&counter_, store_.placement(), reachable, type);

  OpNumber op = store_.MaxOp(reachable) + 1;
  VersionNumber version = store_.MaxVersion(reachable);
  // A current copy within the read quorum (guaranteed to exist because
  // any read quorum intersects every write quorum).
  SiteId source = store_.MaxVersionSites(reachable).RankMax();
  if (type == AccessType::kWrite) {
    // Gifford-style write: every reachable copy receives the new version,
    // so the quorum intersection property keeps later reads current.
    ++version;
    store_.Commit(reachable, op, version, store_.placement());
  }

  CommitInfo info;
  info.kind = type == AccessType::kWrite ? CommitInfo::Kind::kWrite
                                         : CommitInfo::Kind::kRead;
  info.participants = type == AccessType::kWrite
                          ? reachable
                          : store_.MaxVersionSites(reachable);
  info.source = source;
  info.version = version;
  NotifyCommit(info);
  return Status::OK();
}

Status MajorityConsensusVoting::Read(const NetworkState& net, SiteId origin) {
  return Access(net, origin, AccessType::kRead);
}

Status MajorityConsensusVoting::Write(const NetworkState& net,
                                      SiteId origin) {
  return Access(net, origin, AccessType::kWrite);
}

Status MajorityConsensusVoting::Recover(const NetworkState& net,
                                        SiteId site) {
  if (!net.IsSiteUp(site)) {
    return Status::Unavailable("recovering site is down");
  }
  if (!WouldGrant(net, site, AccessType::kRead)) {
    return Status::NoQuorum(name_ + ": no read quorum reachable");
  }
  // Bring the copy up to date so it contributes a current version to
  // later read quorums (harmless: MCV correctness never depends on it).
  SiteSet reachable = ReachableCopies(net, site);
  VersionNumber version = store_.MaxVersion(reachable);
  if (store_.state(site).version < version) {
    counter_.Add(MessageKind::kFileCopy, 1);
    SiteId source = store_.MaxVersionSites(reachable).RankMax();
    ReplicaState* mine = store_.mutable_state(site);
    mine->version = version;
    mine->op_number = store_.MaxOp(reachable);

    CommitInfo info;
    info.kind = CommitInfo::Kind::kRecovery;
    info.participants = SiteSet{site};
    info.source = source;
    info.version = version;
    NotifyCommit(info);
  }
  return Status::OK();
}

}  // namespace dynvote
