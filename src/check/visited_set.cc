#include "check/visited_set.h"

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

const std::uint64_t* ShardedVisitedSet::InsertMin(
    const std::string& signature, std::uint64_t token) {
  const std::uint64_t hash = HashSignature(signature);
  Shard& shard = ShardFor(hash);
  MutexLock lock(shard.mutex);
  auto [it, inserted] = shard.min_token.try_emplace(signature, token);
  if (inserted) {
    shard.digest += hash;  // unsigned: wraps mod 2^64 by definition
  } else if (token < it->second) {
    it->second = token;
  }
  return &it->second;
}

std::size_t ShardedVisitedSet::Size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    total += shard.min_token.size();
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
