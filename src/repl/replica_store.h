// Holds the state ensembles of all physical copies of one replicated file
// and implements the bulk queries the voting algorithms are written in
// terms of: Q (maximal-operation-number sites), S (maximal-version sites)
// and the COMMIT that installs a new partition set.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "repl/replica_state.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/site_set.h"

namespace dynvote {

/// State ensembles for the copies of one replicated file.
///
/// The store is indexed by global SiteId; only sites in `placement` hold
/// copies. Querying a non-placement site is a programming error (checked).
class ReplicaStore {
 public:
  /// Creates a store for copies at `placement` (must be non-empty) in the
  /// paper's initial state: o = v = 1, partition set = placement.
  static Result<ReplicaStore> Make(SiteSet placement);

  /// Returns every copy to the initial state, which is uniform over the
  /// placement.
  void Reset();

  SiteSet placement() const { return placement_; }
  int num_copies() const { return placement_.Size(); }

  /// Monotonic counter bumped by every mutation path (Commit, Reset and
  /// each mutable_state handout). Two observations with equal epoch() saw
  /// identical replica state, so derived quorum decisions may be memoized
  /// keyed on it.
  std::uint64_t epoch() const { return epoch_; }

  /// State of the copy at `site`; `site` must be in placement(). Inline:
  /// the engines read it on every decision.
  const ReplicaState& state(SiteId site) const {
    DYNVOTE_CHECK_MSG(placement_.Contains(site),
                      "queried a site that holds no copy");
    return states_[site];
  }
  /// Also forgets the uniform block: the caller may write anything.
  ReplicaState* mutable_state(SiteId site);

  /// True iff every copy in `copies` (a subset of the placement) carries
  /// the ensemble the last mutation installed with P equal to the block it
  /// wrote: Reset (block = placement) or a Commit whose new partition set
  /// is exactly its participating copies. Over such a group the quorum
  /// test needs no scan: Q = S = `copies` and P_m is the block. Commits
  /// that install any other partition set, and mutable_state handouts,
  /// leave no block, so this is false for any non-empty `copies` until
  /// the next qualifying mutation. Vacuously true for an empty set.
  bool UniformOver(SiteSet copies) const {
    return copies.IsSubsetOf(uniform_block_);
  }

  /// Restricts `sites` to sites actually holding copies.
  SiteSet CopiesAmong(SiteSet sites) const {
    return sites.Intersect(placement_);
  }

  /// Maximum operation number among copies in `among` (∩ placement).
  /// `among` must contain at least one copy.
  OpNumber MaxOp(SiteSet among) const;

  /// Maximum version among copies in `among` (∩ placement).
  VersionNumber MaxVersion(SiteSet among) const;

  /// S of the paper: copies in `among` whose version equals the maximum
  /// over `among`. Empty iff `among` holds no copies.
  SiteSet MaxVersionSites(SiteSet among) const;

  /// COMMIT of the paper: installs `op`/`version`/`new_partition_set` at
  /// every copy in `participants` (∩ placement). Algorithm 1's commits
  /// install P = the participating copies, which leaves the store
  /// UniformOver them.
  void Commit(SiteSet participants, OpNumber op, VersionNumber version,
              SiteSet new_partition_set);

  /// Appends a canonical fingerprint of every copy's ensemble to `out`.
  /// Operation and version numbers are replaced by their rank among the
  /// distinct values present, so two stores whose copies agree on the
  /// *relative* order of operation numbers and versions (the only thing
  /// the quorum test consumes) produce identical fingerprints even when
  /// the absolute counters differ. Used by the model checker to merge
  /// equivalent states (src/check/).
  void AppendCanonicalSignature(std::string* out) const;

 private:
  explicit ReplicaStore(SiteSet placement);

  SiteSet placement_;
  std::vector<ReplicaState> states_;  // indexed by SiteId, dense to max id
  std::uint64_t epoch_ = 0;
  SiteSet uniform_block_;  // see UniformOver()
};

}  // namespace dynvote
