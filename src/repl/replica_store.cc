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
  ++epoch_;
}

const ReplicaState& ReplicaStore::state(SiteId site) const {
  DYNVOTE_CHECK_MSG(placement_.Contains(site),
                    "queried a site that holds no copy");
  return states_[site];
}

ReplicaState* ReplicaStore::mutable_state(SiteId site) {
  DYNVOTE_CHECK_MSG(placement_.Contains(site),
                    "mutated a site that holds no copy");
  // Conservative: the caller may write through the pointer, so every
  // handout invalidates memoized decisions.
  ++epoch_;
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

SiteSet ReplicaStore::MaxOpSites(SiteSet among) const {
  SiteSet copies = CopiesAmong(among);
  if (copies.Empty()) return SiteSet();
  OpNumber best = MaxOp(copies);
  SiteSet out;
  for (SiteId s : copies) {
    if (states_[s].op_number == best) out.Add(s);
  }
  return out;
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
  for (SiteId s : CopiesAmong(participants)) {
    states_[s] = ReplicaState{op, version, new_partition_set};
  }
  ++epoch_;
}

}  // namespace dynvote
