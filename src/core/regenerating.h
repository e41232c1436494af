// Dynamic voting with *regenerable witnesses* — the research direction
// the paper's conclusion points at ("More studies are still needed to
// investigate the inclusion of witness copies"), which Pâris pursued in
// later work: witnesses are cheap (they store only the (o, v, P)
// ensemble), so when a witness's host stays down the majority block can
// simply *replace* it with a fresh witness on a live site, restoring the
// quorum's slack without waiting out a two-week hardware repair.
//
// Mechanics, built on the lexicographic dynamic voting rule:
//
// * Membership M = fixed data copies D ∪ current witness set W. Quorum
//   decisions use the standard partition-set rule restricted to members;
//   an access additionally needs a current *data* copy reachable.
// * On every state refresh the majority block tracks, per member, how
//   many consecutive refreshes the member has been unreachable. When a
//   *witness* reaches the regeneration threshold, the block retires it
//   and instantiates a fresh witness on the highest-ranked reachable
//   non-member site (if any), committing the new membership through the
//   ordinary quorum machinery: the new partition set simply includes the
//   replacement and excludes the retiree.
// * A retired witness that later restarts holds a stale lineage and is
//   refused by the ordinary staleness rules; it never rejoins (its slot
//   may by then be occupied by its replacement).
//
// Safety matches LDV's: every commit is still a majority (or tie-winning
// half) of the previous block, so consecutive blocks intersect in a
// state-carrying member; regeneration only changes *which* sites carry
// the votes going forward.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "core/quorum.h"
#include "net/topology.h"
#include "repl/replica_store.h"
#include "util/result.h"

namespace dynvote {

/// Configuration of the regenerating protocol.
struct RegeneratingOptions {
  /// Consecutive unreachable refreshes after which a witness is replaced.
  int regeneration_threshold = 3;
  /// Sites allowed to host regenerated witnesses; empty = any site of the
  /// topology that holds no data copy.
  SiteSet witness_hosts;
  std::string name = "RLDV";
};

/// Lexicographic dynamic voting with regenerable witnesses.
class RegeneratingVoting final : public ConsistencyProtocol {
 public:
  /// `data_copies` hold the file; `initial_witnesses` are disjoint from
  /// them and hold state only.
  static Result<std::unique_ptr<RegeneratingVoting>> Make(
      std::shared_ptr<const Topology> topology, SiteSet data_copies,
      SiteSet initial_witnesses, RegeneratingOptions options = {});

  const std::string& name() const override { return name_; }
  /// Current membership (data + live witness slots); changes over time.
  SiteSet placement() const override { return members_; }
  SiteSet data_sites() const override { return data_copies_; }
  bool uses_instantaneous_information() const override { return true; }

  bool WouldGrant(const NetworkState& net, SiteId origin,
                  AccessType type) const override;
  Status Read(const NetworkState& net, SiteId origin) override;
  Status Write(const NetworkState& net, SiteId origin) override;
  Status Recover(const NetworkState& net, SiteId site) override;
  void OnNetworkEvent(const NetworkState& net) override;
  void Reset() override;

  void AssignFrom(const ConsistencyProtocol& other) override {
    *this = SameTypeAs<RegeneratingVoting>(other);
  }

  /// Current witness set (observable for tests and benches).
  SiteSet witnesses() const { return witnesses_; }
  /// Number of regenerations performed so far.
  std::uint64_t regenerations() const { return regenerations_; }

  const ReplicaStore& store() const { return store_; }

 private:
  RegeneratingVoting(std::shared_ptr<const Topology> topology,
                     ReplicaStore store, SiteSet data_copies,
                     SiteSet initial_witnesses,
                     RegeneratingOptions options);

  QuorumDecision Evaluate(SiteSet group) const;
  Status Access(const NetworkState& net, SiteId origin, AccessType type);
  void ReintegrateGroup(const NetworkState& net, SiteSet group);
  /// Replaces timed-out witnesses with fresh ones hosted in `group`.
  void MaybeRegenerate(const NetworkState& net, SiteSet group);

  std::shared_ptr<const Topology> topology_;
  /// Backing state for every site of the topology (membership varies).
  ReplicaStore store_;
  SiteSet data_copies_;
  SiteSet initial_witnesses_;
  SiteSet witnesses_;
  SiteSet members_;
  RegeneratingOptions options_;
  std::string name_;
  std::vector<int> miss_count_;  // per site, consecutive refresh misses
  std::uint64_t regenerations_ = 0;
};

}  // namespace dynvote
