// Available Copy (Bernstein & Goodman 1984; Long & Pâris 1987): the
// consistency protocol for networks that cannot partition, included as the
// baseline that Topological Dynamic Voting degenerates into when all
// copies share one segment (paper, Section 3).
//
// Semantics: writes go to every available copy; the file is accessible as
// long as at least one *current* copy is up. A copy that was down across a
// write is stale and reintegrates by copying from a current copy. After a
// total failure the file stays unavailable until a member of the last
// current set restarts.
//
// WARNING: Available Copy assumes the network cannot partition. On a
// partitionable topology two isolated groups may both hold current copies
// and both grant writes — partition_safe() returns false, and tests
// exercise this protocol only on single-segment placements.

#pragma once

#include <memory>
#include <string>

#include "core/protocol.h"
#include "repl/replica_store.h"
#include "util/append.h"
#include "util/result.h"

namespace dynvote {

/// The Available Copy protocol.
class AvailableCopy final : public ConsistencyProtocol {
 public:
  /// Creates the protocol for copies at `placement`.
  static Result<std::unique_ptr<AvailableCopy>> Make(SiteSet placement);

  const std::string& name() const override { return name_; }
  SiteSet placement() const override { return store_.placement(); }
  bool uses_instantaneous_information() const override { return true; }

  /// False: the protocol is only correct on non-partitionable networks.
  bool partition_safe() const override { return false; }

  bool WouldGrant(const NetworkState& net, SiteId origin,
                  AccessType type) const override;
  Status Read(const NetworkState& net, SiteId origin) override;
  Status Write(const NetworkState& net, SiteId origin) override;
  Status Recover(const NetworkState& net, SiteId site) override;
  void OnNetworkEvent(const NetworkState& net) override;
  void Reset() override;

  void AssignFrom(const ConsistencyProtocol& other) override {
    *this = SameTypeAs<AvailableCopy>(other);
  }

  bool AppendStateSignature(std::string* out) const override {
    store_.AppendCanonicalSignature(out);
    out->push_back('c');
    AppendDecimal(current_.mask(), out);
    return true;
  }

  /// Sites currently known to hold the latest write (up or down).
  SiteSet current_set() const { return current_; }

  const ReplicaStore& store() const { return store_; }

 protected:
  /// AC grants are always "a current copy is reachable"; denials are
  /// "copies up, none current" or "no copies at all".
  QuorumReason ClassifyUserAccess(const NetworkState& net, AccessType type,
                                  bool granted,
                                  SiteId origin) const override;

 private:
  explicit AvailableCopy(ReplicaStore store);

  ReplicaStore store_;
  SiteSet current_;
  std::string name_ = "AC";
};

}  // namespace dynvote
