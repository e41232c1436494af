// A self-contained replicated-KV cluster with fault injection: owns the
// network state, keeps the protocol informed of membership changes, and
// exposes kill/restart/partition controls for examples and tests.

#pragma once

#include <memory>
#include <string>

#include "kv/kv_store.h"
#include "net/network_state.h"
#include "net/topology.h"
#include "util/result.h"

namespace dynvote {

/// Replicated KV store + network + fault injection in one object.
class KvCluster {
 public:
  /// Builds a cluster running protocol `protocol_name` (a registry name:
  /// "MCV", "LDV", "ODV", ...) with copies at `placement`.
  static Result<std::unique_ptr<KvCluster>> Make(
      std::shared_ptr<const Topology> topology, SiteSet placement,
      const std::string& protocol_name);

  /// Builds a cluster around an existing protocol.
  static Result<std::unique_ptr<KvCluster>> Make(
      std::shared_ptr<const Topology> topology,
      std::unique_ptr<ConsistencyProtocol> protocol);

  KvCluster(const KvCluster&) = delete;
  KvCluster& operator=(const KvCluster&) = delete;

  /// Overwrites this cluster with `other` as it stands: network state,
  /// protocol state and replica contents (see
  /// ReplicatedKvStore::AssignFrom). The protocols must have the same
  /// dynamic type.
  void AssignFrom(const KvCluster& other);

  /// --- data plane ------------------------------------------------------
  Status Put(SiteId origin, const std::string& key, std::string value) {
    return store_->Put(net_, origin, key, std::move(value));
  }
  Result<std::string> Get(SiteId origin, const std::string& key) {
    return store_->Get(net_, origin, key);
  }
  Status Delete(SiteId origin, const std::string& key) {
    return store_->Delete(net_, origin, key);
  }

  /// --- fault injection -------------------------------------------------
  /// Crashes a site (fail-stop, as the paper assumes).
  void KillSite(SiteId site);
  /// Restarts a site. Instantaneous-information protocols reintegrate it
  /// immediately; for optimistic ones call TryRecover or let the next
  /// granted access reintegrate it.
  void RestartSite(SiteId site);
  /// Fails / repairs a standalone repeater (partitions the network).
  void KillRepeater(RepeaterId repeater);
  void RestartRepeater(RepeaterId repeater);

  /// Explicit recovery attempt for a live site (Figure 3 / 7).
  Status TryRecover(SiteId site) {
    return store_->protocol()->Recover(net_, site);
  }

  /// --- observation -----------------------------------------------------
  const NetworkState& net() const { return net_; }
  ReplicatedKvStore& store() { return *store_; }
  const ReplicatedKvStore& store() const { return *store_; }
  const ConsistencyProtocol& protocol() const {
    return *store_->protocol();
  }

  /// True iff some live site could currently be granted an access.
  bool IsAvailable() const {
    return store_->protocol()->IsAvailable(net_);
  }

 private:
  KvCluster(NetworkState net, std::unique_ptr<ReplicatedKvStore> store);

  NetworkState net_;
  std::unique_ptr<ReplicatedKvStore> store_;
};

}  // namespace dynvote
