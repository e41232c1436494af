// The parallel checker's visited-state table: canonical signatures
// sharded by hash, each shard behind its own Mutex, so concurrent
// expansion workers insert without a global lock. Every insert carries
// the expansion's deterministic claim token (the global BFS order index)
// and the shard keeps the *minimum* token per signature — min is
// commutative and associative, so the table's final contents after a
// level's Wait() barrier are independent of worker interleaving, and the
// merge phase can resolve "which schedule first reached this state" in
// the exact order a sequential breadth-first search would have.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "util/thread_annotations.h"

namespace dynvote {
namespace check {

class ShardedVisitedSet {
 public:
  /// Shard count. A fixed power of two: the shard index is the top bits
  /// of the signature hash, so resizing would reshuffle every entry.
  static constexpr int kShards = 16;

  /// Records that the expansion holding claim token `token` reached the
  /// state with canonical signature `signature`, keeping the minimum
  /// token per signature. Returns the signature's min-token cell: every
  /// insert of the same signature returns the same cell, and its final
  /// value (== token exactly when this call's expansion claimed the state
  /// first — in token order, not wall-clock order) is settled once every
  /// concurrent insert has returned. Thread-safe; only the owning shard
  /// locks. The cell stays valid for the set's lifetime (map nodes never
  /// move), but concurrent inserts may still lower it, so read it only
  /// after a barrier that orders it behind them (the checker's level
  /// barrier, ThreadPool::Wait).
  const std::uint64_t* InsertMin(const std::string& signature,
                                 std::uint64_t token);

  /// Distinct signatures across all shards (merged in ascending shard
  /// order; the count is interleaving-independent).
  std::size_t Size() const;

  /// Order-independent digest of the signature *set*: the mod-2^64 sum
  /// of every signature's FNV-1a hash, folded across shards in ascending
  /// shard order. Two sets are overwhelmingly likely to digest equally
  /// iff they contain the same signatures, regardless of the insertion
  /// interleaving that built them — this is what the POR-equivalence and
  /// jobs-determinism checks compare.
  std::uint64_t Digest() const;

  /// FNV-1a 64-bit. Implemented here (not std::hash) so digests are
  /// stable across standard libraries and builds.
  static std::uint64_t HashSignature(const std::string& signature);

 private:
  struct Shard {
    mutable Mutex mutex;
    std::unordered_map<std::string, std::uint64_t> min_token
        DYNVOTE_GUARDED_BY(mutex);
    std::uint64_t digest DYNVOTE_GUARDED_BY(mutex) = 0;
  };

  Shard& ShardFor(std::uint64_t hash) {
    return shards_[hash >> (64 - 4)];  // top log2(kShards) bits
  }

  std::array<Shard, kShards> shards_;
};

}  // namespace check
}  // namespace dynvote
