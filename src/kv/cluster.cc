#include "kv/cluster.h"

#include "core/registry.h"

namespace dynvote {

Result<std::unique_ptr<KvCluster>> KvCluster::Make(
    std::shared_ptr<const Topology> topology, SiteSet placement,
    const std::string& protocol_name) {
  auto protocol = MakeProtocolByName(protocol_name, topology, placement);
  if (!protocol.ok()) return protocol.status();
  return Make(std::move(topology), protocol.MoveValue());
}

Result<std::unique_ptr<KvCluster>> KvCluster::Make(
    std::shared_ptr<const Topology> topology,
    std::unique_ptr<ConsistencyProtocol> protocol) {
  if (topology == nullptr) {
    return Status::InvalidArgument("topology must not be null");
  }
  if (protocol == nullptr) {
    return Status::InvalidArgument("protocol must not be null");
  }
  auto store = ReplicatedKvStore::Make(std::move(protocol));
  if (!store.ok()) return store.status();
  return std::unique_ptr<KvCluster>(
      new KvCluster(NetworkState(std::move(topology)), store.MoveValue()));
}

KvCluster::KvCluster(NetworkState net,
                     std::unique_ptr<ReplicatedKvStore> store)
    : net_(std::move(net)), store_(std::move(store)) {}

void KvCluster::AssignFrom(const KvCluster& other) {
  net_ = other.net_;
  store_->AssignFrom(*other.store_);
}

void KvCluster::KillSite(SiteId site) {
  net_.SetSiteUp(site, false);
  store_->protocol()->OnNetworkEvent(net_);
}

void KvCluster::RestartSite(SiteId site) {
  net_.SetSiteUp(site, true);
  store_->protocol()->OnNetworkEvent(net_);
}

void KvCluster::KillRepeater(RepeaterId repeater) {
  net_.SetRepeaterUp(repeater, false);
  store_->protocol()->OnNetworkEvent(net_);
}

void KvCluster::RestartRepeater(RepeaterId repeater) {
  net_.SetRepeaterUp(repeater, true);
  store_->protocol()->OnNetworkEvent(net_);
}

}  // namespace dynvote
