// The parallel checker's visited-state table: canonical signatures
// sharded by hash, each shard behind its own Mutex, so concurrent
// expansion workers insert without a global lock. Every insert carries
// the expansion's deterministic claim token (the global BFS order index)
// and the shard keeps the *minimum* token per signature — min is
// commutative and associative, so the table's final contents after a
// level's Wait() barrier are independent of worker interleaving, and the
// merge phase can resolve "which schedule first reached this state" in
// the exact order a sequential breadth-first search would have.
//
// An insert hashes the signature once (FNV-1a 64, outside the lock); the
// hash picks the shard, the home slot and feeds the digest. Each shard
// stores its signatures back to back in one byte arena and indexes them
// with a linear-probing table, so an insert allocates nothing unless an
// arena or the table grows.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace dynvote {
namespace check {

class ShardedVisitedSet {
 public:
  /// Shard count. A fixed power of two: the shard index is the top bits
  /// of the signature hash, so resizing would reshuffle every entry.
  static constexpr int kShards = 64;
  static constexpr int kShardBits = 6;  // log2(kShards)
  static_assert(kShards == 1 << kShardBits);

  /// Slots a shard's probe table starts with, at the shard's first
  /// insert; it doubles whenever one more entry would fill it past half.
  static constexpr std::size_t kInitialSlots = 16;

  /// Records that the expansion holding claim token `token` reached the
  /// state with canonical signature `signature`, keeping the minimum
  /// token per signature. Returns the signature's min-token cell: every
  /// insert of the same signature returns the same cell, and its final
  /// value (== token exactly when this call's expansion claimed the state
  /// first — in token order, not wall-clock order) is settled once every
  /// concurrent insert has returned. Thread-safe; only the owning shard
  /// locks. The cell stays valid for the set's lifetime (cells live in a
  /// deque, which never moves an element it already holds), but
  /// concurrent inserts may still lower it, so read it only after a
  /// barrier that orders it behind them (the checker's level barrier,
  /// ThreadPool::Wait).
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

  /// The shard a hash belongs to: its top kShardBits bits.
  static int ShardOf(std::uint64_t hash) {
    return static_cast<int>(hash >> (64 - kShardBits));
  }

  /// The slot a hash probes first in a table of `slots` (a power of two,
  /// at most 2^32) slots. It reads only the hash's low 32 bits — the
  /// probe table keeps just those, and they are bits the shard choice
  /// never looked at — spread by an odd multiplier into the upper half of
  /// a 64-bit product. Public so tests can build collisions.
  static std::size_t HomeSlot(std::uint64_t hash, std::size_t slots) {
    const std::uint64_t low = static_cast<std::uint32_t>(hash);
    return static_cast<std::size_t>((low * 0x9E3779B97F4A7C15ull) >> 32) &
           (slots - 1);
  }

 private:
  /// Bytes per arena block. Blocks never move or grow, so an arena wastes
  /// at most one partly filled block and growing it copies nothing.
  static constexpr std::size_t kArenaBlock = 4096;

  /// One probe-table slot: the low 32 bits of a signature's hash (all a
  /// probe needs to skip a mismatch and all HomeSlot reads on regrowth)
  /// and its entry id, or kEmptySlot.
  struct Slot {
    std::uint32_t hash;
    std::uint32_t entry;
  };
  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;

  // alignas(64): each shard's mutex and fields start on their own cache
  // line, so locking one shard never invalidates a neighbour's line.
  struct alignas(64) Shard {
    mutable Mutex mutex;
    // The shard's signatures back to back in one byte range split into
    // kArenaBlock-byte blocks; byte k lives in arena[k / kArenaBlock].
    // Entry i's bytes are [ends[i - 1], ends[i]) (ends[-1] = 0) and may
    // straddle blocks.
    std::vector<std::unique_ptr<char[]>> arena DYNVOTE_GUARDED_BY(mutex);
    std::vector<std::uint32_t> ends DYNVOTE_GUARDED_BY(mutex);
    // Entry i's min-token cell; a deque so InsertMin's pointers survive
    // later growth.
    std::deque<std::uint64_t> min_token DYNVOTE_GUARDED_BY(mutex);
    // Linear-probing index over the entries, at most half full.
    std::vector<Slot> slots DYNVOTE_GUARDED_BY(mutex);
    std::uint64_t digest DYNVOTE_GUARDED_BY(mutex) = 0;

    // Calls piece(block_bytes, done, n) for each block-bounded piece of
    // the arena range [begin, begin + size), where the piece holds bytes
    // [done, done + n) of the range; stops early when piece returns
    // false, and returns whether it never did.
    template <typename Piece>
    bool ForEachPiece(std::uint32_t begin, std::size_t size,
                      Piece piece) const DYNVOTE_REQUIRES(mutex);
    bool Holds(std::uint32_t entry, const std::string& signature) const
        DYNVOTE_REQUIRES(mutex);
    void Append(const std::string& signature) DYNVOTE_REQUIRES(mutex);
    void Grow() DYNVOTE_REQUIRES(mutex);
  };

  std::array<Shard, kShards> shards_;
};

}  // namespace check
}  // namespace dynvote
