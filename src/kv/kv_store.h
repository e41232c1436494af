// A replicated key-value store whose consistency is controlled by any
// ConsistencyProtocol from src/core. Each site in the placement holds a
// full copy of the map; the paper's model replicates whole files, so a
// write is a whole-object read-modify-write applied at every participant
// the protocol commits to, and recovery copies the whole map.
//
// This layer demonstrates that the voting protocols do real work: under
// fault injection, a successful Get always observes the latest successful
// Put (one-copy serialisability) for every partition-safe protocol.

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/protocol.h"
#include "net/network_state.h"
#include "util/result.h"

namespace dynvote {

/// One replica's contents.
using KvMap = std::map<std::string, std::string>;

/// Replicated map on top of a consistency protocol.
class ReplicatedKvStore {
 public:
  /// Takes ownership of `protocol`; the store installs itself as the
  /// protocol's commit hook.
  static Result<std::unique_ptr<ReplicatedKvStore>> Make(
      std::unique_ptr<ConsistencyProtocol> protocol);

  ReplicatedKvStore(const ReplicatedKvStore&) = delete;
  ReplicatedKvStore& operator=(const ReplicatedKvStore&) = delete;

  /// Overwrites this store with `other` as it stands: the protocol (see
  /// ConsistencyProtocol::AssignFrom — this store stays its protocol's
  /// commit hook) and every replica's contents, reusing this store's
  /// allocations. The protocols must have the same dynamic type.
  void AssignFrom(const ReplicatedKvStore& other);

  /// Writes `key` -> `value` through the protocol, issued at `origin`.
  /// Returns NoQuorum when origin is outside the majority partition.
  Status Put(const NetworkState& net, SiteId origin, const std::string& key,
             std::string value);

  /// Removes `key` through the protocol (a write).
  Status Delete(const NetworkState& net, SiteId origin,
                const std::string& key);

  /// Reads `key` through the protocol. NotFound if the key does not
  /// exist; NoQuorum if origin is outside the majority partition.
  Result<std::string> Get(const NetworkState& net, SiteId origin,
                          const std::string& key);

  /// The underlying protocol (for fault-injection notifications and
  /// inspection).
  ConsistencyProtocol* protocol() { return protocol_.get(); }
  const ConsistencyProtocol& protocol() const { return *protocol_; }

  /// Raw contents of one replica — test/debug access; production readers
  /// must go through Get().
  const KvMap& ReplicaContents(SiteId site) const;
  /// Every data replica's contents, keyed (and ordered) by site: one
  /// entry per protocol data_sites() member.
  const std::map<SiteId, KvMap>& replicas() const { return replicas_; }

  /// Number of keys a Get at `origin` would see, or NoQuorum.
  Result<std::size_t> Size(const NetworkState& net, SiteId origin);

 private:
  explicit ReplicatedKvStore(std::unique_ptr<ConsistencyProtocol> protocol);

  /// Commit hook: moves map contents where the protocol moved currency.
  void OnCommit(const CommitInfo& info);

  std::unique_ptr<ConsistencyProtocol> protocol_;
  std::map<SiteId, KvMap> replicas_;

  /// Mutation staged by Put/Delete, applied by the kWrite hook.
  struct PendingWrite {
    std::string key;
    std::optional<std::string> value;  // nullopt = delete
  };
  std::optional<PendingWrite> pending_write_;
  /// Source replica of the last granted read, set by the kRead hook.
  SiteId last_read_source_ = -1;
};

}  // namespace dynvote
