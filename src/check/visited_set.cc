#include "check/visited_set.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/logging.h"

namespace dynvote {
namespace check {

std::uint64_t ShardedVisitedSet::HashSignature(const std::string& signature) {
  std::uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  for (unsigned char c : signature) {
    hash ^= c;
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

template <typename Piece>
bool ShardedVisitedSet::Shard::ForEachPiece(std::uint32_t begin,
                                            std::size_t size,
                                            Piece piece) const {
  for (std::size_t done = 0; done < size;) {
    const std::size_t at = begin + done;
    const std::size_t offset = at % kArenaBlock;
    const std::size_t n = std::min(size - done, kArenaBlock - offset);
    if (!piece(arena[at / kArenaBlock].get() + offset, done, n)) {
      return false;
    }
    done += n;
  }
  return true;
}

bool ShardedVisitedSet::Shard::Holds(std::uint32_t entry,
                                     const std::string& signature) const {
  const std::uint32_t begin = entry == 0 ? 0 : ends[entry - 1];
  if (ends[entry] - begin != signature.size()) return false;
  return ForEachPiece(begin, signature.size(),
                      [&signature](const char* bytes, std::size_t done,
                                   std::size_t n) {
                        return std::memcmp(bytes, signature.data() + done,
                                           n) == 0;
                      });
}

void ShardedVisitedSet::Shard::Append(const std::string& signature) {
  const std::uint32_t begin = ends.empty() ? 0 : ends.back();
  // Entry ids and arena end offsets are 32-bit.
  DYNVOTE_CHECK(ends.size() < kEmptySlot);
  DYNVOTE_CHECK(signature.size() <=
                std::numeric_limits<std::uint32_t>::max() - begin);
  const std::size_t end = begin + signature.size();
  while (arena.size() * kArenaBlock < end) {
    arena.push_back(std::make_unique_for_overwrite<char[]>(kArenaBlock));
  }
  ForEachPiece(begin, signature.size(),
               [&signature](char* bytes, std::size_t done, std::size_t n) {
                 std::memcpy(bytes, signature.data() + done, n);
                 return true;
               });
  ends.push_back(static_cast<std::uint32_t>(end));
}

void ShardedVisitedSet::Shard::Grow() {
  const std::size_t size = slots.empty() ? kInitialSlots : 2 * slots.size();
  DYNVOTE_CHECK(size <= (std::size_t{1} << 32));  // HomeSlot's reach
  std::vector<Slot> grown(size, Slot{0, kEmptySlot});
  for (const Slot& slot : slots) {
    if (slot.entry == kEmptySlot) continue;
    std::size_t i = HomeSlot(slot.hash, size);
    while (grown[i].entry != kEmptySlot) i = (i + 1) & (size - 1);
    grown[i] = slot;
  }
  slots.swap(grown);
}

const std::uint64_t* ShardedVisitedSet::InsertMin(
    const std::string& signature, std::uint64_t token) {
  const std::uint64_t hash = HashSignature(signature);
  Shard& shard = shards_[ShardOf(hash)];
  MutexLock lock(shard.mutex);
  // Keep the table at most half full counting the entry this call may
  // add, so the probe below always ends at an empty slot.
  if (2 * (shard.ends.size() + 1) > shard.slots.size()) shard.Grow();
  const std::uint32_t low = static_cast<std::uint32_t>(hash);
  const std::size_t mask = shard.slots.size() - 1;
  std::size_t i = HomeSlot(hash, shard.slots.size());
  for (; shard.slots[i].entry != kEmptySlot; i = (i + 1) & mask) {
    const Slot& slot = shard.slots[i];
    if (slot.hash == low && shard.Holds(slot.entry, signature)) {
      std::uint64_t& cell = shard.min_token[slot.entry];
      if (token < cell) cell = token;
      return &cell;
    }
  }
  shard.slots[i] = Slot{low, static_cast<std::uint32_t>(shard.ends.size())};
  shard.Append(signature);
  shard.digest += hash;  // unsigned: wraps mod 2^64 by definition
  return &shard.min_token.emplace_back(token);
}

std::size_t ShardedVisitedSet::Size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    total += shard.ends.size();
  }
  return total;
}

std::uint64_t ShardedVisitedSet::Digest() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    total += shard.digest;
  }
  return total;
}

}  // namespace check
}  // namespace dynvote
