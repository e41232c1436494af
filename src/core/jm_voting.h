// The Jajodia-Mutchler formulation of dynamic voting (SIGMOD 1987),
// which Section 2.1 of the Pâris-Long paper discusses: instead of the
// partition *set*, every copy stores the *cardinality* of the last
// majority partition. "It requires less storage to implement simple
// Dynamic Voting, but it cannot accommodate Lexicographic Dynamic Voting
// as it does not keep track of the identity of the maximum element of the
// partition set."
//
// We implement it to substantiate that claim mechanically: on identical
// histories the protocol's availability coincides exactly with the
// partition-set implementation of plain DV (asserted by a differential
// test), while the lexicographic tie-break is simply inexpressible in its
// state.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "net/topology.h"
#include "util/result.h"

namespace dynvote {

/// Per-copy state of the Jajodia-Mutchler protocol.
struct JmReplicaState {
  /// Update counter ("version number" VN in their paper — bumped by every
  /// successful operation, like our operation number).
  std::int64_t update_number = 1;
  /// Cardinality of the partition that performed the last update ("SC").
  int last_cardinality = 0;
  /// Data version, bumped by writes only (so recovery can tell whether a
  /// file copy is needed; JM's paper folds this into VN).
  std::int64_t data_version = 1;
};

/// Dynamic voting over update counts and cardinalities.
class JajodiaMutchlerVoting final : public ConsistencyProtocol {
 public:
  static Result<std::unique_ptr<JajodiaMutchlerVoting>> Make(
      std::shared_ptr<const Topology> topology, SiteSet placement);

  const std::string& name() const override { return name_; }
  SiteSet placement() const override { return placement_; }
  bool uses_instantaneous_information() const override { return true; }

  bool WouldGrant(const NetworkState& net, SiteId origin,
                  AccessType type) const override;
  Status Read(const NetworkState& net, SiteId origin) override;
  Status Write(const NetworkState& net, SiteId origin) override;
  Status Recover(const NetworkState& net, SiteId site) override;
  void OnNetworkEvent(const NetworkState& net) override;
  void Reset() override;

  void AssignFrom(const ConsistencyProtocol& other) override {
    *this = SameTypeAs<JajodiaMutchlerVoting>(other);
  }
  std::uint64_t state_epoch() const override { return epoch_; }
  bool AppendStateSignature(std::string* out) const override;

  const JmReplicaState& state(SiteId site) const;

 private:
  JajodiaMutchlerVoting(std::shared_ptr<const Topology> topology,
                        SiteSet placement);

  /// The majority test: reachable copies carrying the maximal update
  /// number must outnumber half of the recorded cardinality.
  struct Evaluation {
    bool granted = false;
    SiteSet reachable;     // reachable copies
    SiteSet current;       // max-update-number subset
    std::int64_t max_update = 0;
    int cardinality = 0;   // SC read from any current member
  };
  Evaluation Evaluate(SiteSet group) const;

  Status Access(const NetworkState& net, SiteId origin, AccessType type);
  /// Commits an update: every reachable copy becomes current with the
  /// group's size as the new cardinality (stale members catch up — JM's
  /// protocol brings the whole partition current on update).
  void CommitGroup(const Evaluation& eval, bool is_write);

  std::shared_ptr<const Topology> topology_;
  SiteSet placement_;
  std::vector<JmReplicaState> states_;
  std::uint64_t epoch_ = 0;  // bumped by every states_ mutation
  std::string name_ = "JM-DV";
};

}  // namespace dynvote
