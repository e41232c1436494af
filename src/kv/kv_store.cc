#include "kv/kv_store.h"

#include "util/logging.h"

namespace dynvote {

Result<std::unique_ptr<ReplicatedKvStore>> ReplicatedKvStore::Make(
    std::unique_ptr<ConsistencyProtocol> protocol) {
  if (protocol == nullptr) {
    return Status::InvalidArgument("protocol must not be null");
  }
  return std::unique_ptr<ReplicatedKvStore>(
      new ReplicatedKvStore(std::move(protocol)));
}

ReplicatedKvStore::ReplicatedKvStore(
    std::unique_ptr<ConsistencyProtocol> protocol)
    : protocol_(std::move(protocol)) {
  // Witnesses vote but never store contents: no replica map for them.
  for (SiteId s : protocol_->data_sites()) replicas_[s] = KvMap();
  protocol_->set_commit_hook(
      [this](const CommitInfo& info) { OnCommit(info); });
}

void ReplicatedKvStore::AssignFrom(const ReplicatedKvStore& other) {
  protocol_->AssignFrom(*other.protocol_);
  replicas_ = other.replicas_;
  pending_write_ = other.pending_write_;
  last_read_source_ = other.last_read_source_;
}

const KvMap& ReplicatedKvStore::ReplicaContents(SiteId site) const {
  auto it = replicas_.find(site);
  DYNVOTE_CHECK_MSG(it != replicas_.end(),
                    "site holds no data replica (witness or non-member)");
  return it->second;
}

void ReplicatedKvStore::OnCommit(const CommitInfo& info) {
  switch (info.kind) {
    case CommitInfo::Kind::kRead:
      last_read_source_ = info.source;
      break;
    case CommitInfo::Kind::kWrite: {
      DYNVOTE_CHECK_MSG(replicas_.count(info.source) == 1,
                        "write source holds no replica");
      // Whole-object read-modify-write: start from the current contents,
      // apply the staged mutation, install at every participant.
      KvMap next = replicas_[info.source];
      if (pending_write_.has_value()) {
        if (pending_write_->value.has_value()) {
          next[pending_write_->key] = *pending_write_->value;
        } else {
          next.erase(pending_write_->key);
        }
      }
      for (SiteId s : info.participants) {
        if (replicas_.count(s) == 1) replicas_[s] = next;
      }
      break;
    }
    case CommitInfo::Kind::kRecovery: {
      if (replicas_.count(info.source) == 0) break;  // witness source
      const KvMap& from = replicas_[info.source];
      for (SiteId s : info.participants) {
        if (replicas_.count(s) == 1) replicas_[s] = from;
      }
      break;
    }
  }
}

Status ReplicatedKvStore::Put(const NetworkState& net, SiteId origin,
                              const std::string& key, std::string value) {
  pending_write_ = PendingWrite{key, std::move(value)};
  Status st = protocol_->Write(net, origin);
  pending_write_.reset();
  return st;
}

Status ReplicatedKvStore::Delete(const NetworkState& net, SiteId origin,
                                 const std::string& key) {
  pending_write_ = PendingWrite{key, std::nullopt};
  Status st = protocol_->Write(net, origin);
  pending_write_.reset();
  return st;
}

Result<std::string> ReplicatedKvStore::Get(const NetworkState& net,
                                           SiteId origin,
                                           const std::string& key) {
  last_read_source_ = -1;
  DYNVOTE_RETURN_NOT_OK(protocol_->Read(net, origin));
  DYNVOTE_CHECK_MSG(last_read_source_ >= 0,
                    "granted read reported no source replica");
  const KvMap& data = replicas_[last_read_source_];
  auto it = data.find(key);
  if (it == data.end()) {
    return Status::NotFound("no value for key '" + key + "'");
  }
  return it->second;
}

Result<std::size_t> ReplicatedKvStore::Size(const NetworkState& net,
                                            SiteId origin) {
  last_read_source_ = -1;
  DYNVOTE_RETURN_NOT_OK(protocol_->Read(net, origin));
  DYNVOTE_CHECK_MSG(last_read_source_ >= 0,
                    "granted read reported no source replica");
  return replicas_[last_read_source_].size();
}

}  // namespace dynvote
