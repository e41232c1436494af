#include "repl/replica_store.h"

#include <algorithm>

#include "util/append.h"
#include "util/dense_ranks.h"
#include "util/logging.h"

namespace dynvote {

Result<ReplicaStore> ReplicaStore::Make(SiteSet placement) {
  if (placement.Empty()) {
    return Status::InvalidArgument("placement must contain at least one site");
  }
  return ReplicaStore(placement);
}

ReplicaStore::ReplicaStore(SiteSet placement) : placement_(placement) {
  states_.resize(placement.RankMin() + 1);
  Reset();
}

void ReplicaStore::Reset() {
  for (SiteId s : placement_) {
    states_[s] = ReplicaState{1, 1, placement_};
  }
  uniform_block_ = placement_;
  ++epoch_;
}

ReplicaState* ReplicaStore::mutable_state(SiteId site) {
  DYNVOTE_CHECK_MSG(placement_.Contains(site),
                    "mutated a site that holds no copy");
  // Conservative: the caller may write through the pointer, so every
  // handout invalidates memoized decisions and the uniform block.
  ++epoch_;
  uniform_block_ = SiteSet();
  return &states_[site];
}

OpNumber ReplicaStore::MaxOp(SiteSet among) const {
  SiteSet copies = CopiesAmong(among);
  DYNVOTE_CHECK_MSG(!copies.Empty(), "MaxOp over a set with no copies");
  OpNumber best = 0;
  for (SiteId s : copies) best = std::max(best, states_[s].op_number);
  return best;
}

VersionNumber ReplicaStore::MaxVersion(SiteSet among) const {
  SiteSet copies = CopiesAmong(among);
  DYNVOTE_CHECK_MSG(!copies.Empty(), "MaxVersion over a set with no copies");
  VersionNumber best = 0;
  for (SiteId s : copies) best = std::max(best, states_[s].version);
  return best;
}

SiteSet ReplicaStore::MaxVersionSites(SiteSet among) const {
  SiteSet copies = CopiesAmong(among);
  if (copies.Empty()) return SiteSet();
  VersionNumber best = MaxVersion(copies);
  SiteSet out;
  for (SiteId s : copies) {
    if (states_[s].version == best) out.Add(s);
  }
  return out;
}

void ReplicaStore::AppendCanonicalSignature(std::string* out) const {
  DenseRanks ops, versions;
  for (SiteId s : placement_) {
    ops.Add(states_[s].op_number);
    versions.Add(states_[s].version);
  }
  ops.Seal();
  versions.Seal();
  for (SiteId s : placement_) {
    const ReplicaState& st = states_[s];
    out->push_back('o');
    AppendDecimal(ops.RankOf(st.op_number), out);
    out->push_back('v');
    AppendDecimal(versions.RankOf(st.version), out);
    out->push_back('p');
    AppendDecimal(st.partition_set.mask(), out);
    out->push_back(';');
  }
}

void ReplicaStore::Commit(SiteSet participants, OpNumber op,
                          VersionNumber version, SiteSet new_partition_set) {
  const SiteSet copies = CopiesAmong(participants);
  for (SiteId s : copies) {
    states_[s] = ReplicaState{op, version, new_partition_set};
  }
  uniform_block_ = new_partition_set == copies ? copies : SiteSet();
  ++epoch_;
}

}  // namespace dynvote
