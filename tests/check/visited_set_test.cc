// The sharded visited set under contention: colliding concurrent inserts
// must resolve to the single minimum claim token, and the set's size and
// order-independent digest must not depend on which worker won which
// race. Runs under the thread-sanitize CI filter.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/visited_set.h"
#include "util/thread_pool.h"

namespace dynvote {
namespace check {
namespace {

TEST(ShardedVisitedSetTest, InsertMinKeepsTheMinimumToken) {
  ShardedVisitedSet set;
  EXPECT_EQ(set.Size(), 0u);
  EXPECT_EQ(set.Digest(), 0u);  // nothing visited yet

  const std::uint64_t* cell = set.InsertMin("s", 7);
  EXPECT_EQ(*cell, 7u);
  EXPECT_EQ(set.InsertMin("s", 9), cell);  // one cell per signature
  EXPECT_EQ(*cell, 7u);                    // larger token loses
  EXPECT_EQ(set.InsertMin("s", 3), cell);
  EXPECT_EQ(*cell, 3u);  // smaller token wins
  EXPECT_EQ(set.Size(), 1u);
}

TEST(ShardedVisitedSetTest, CellsSurviveLaterInserts) {
  // The checker reads a claim cell only after the level barrier, by
  // which time the shard's map may have rehashed many times; the cell
  // must still be the signature's live min-token slot.
  ShardedVisitedSet set;
  const std::uint64_t* first = set.InsertMin("first", 5);
  for (int i = 0; i < 5000; ++i) {
    set.InsertMin("filler-" + std::to_string(i),
                  static_cast<std::uint64_t>(100 + i));
  }
  EXPECT_EQ(*first, 5u);
  set.InsertMin("first", 2);
  EXPECT_EQ(*first, 2u);
  EXPECT_EQ(set.InsertMin("first", 9), first);
}

TEST(ShardedVisitedSetTest, HashIsExplicitFnv1a64) {
  // The digest must be stable across standard libraries and builds —
  // CI diffs it between runs — so the hash is pinned to FNV-1a 64
  // known-answer values, not std::hash.
  EXPECT_EQ(ShardedVisitedSet::HashSignature(""), 14695981039346656037ull);
  EXPECT_EQ(ShardedVisitedSet::HashSignature("a"), 12638187200555641996ull);
}

TEST(ShardedVisitedSetTest, DigestIsTheSumOfMemberHashes) {
  ShardedVisitedSet set;
  set.InsertMin("alpha", 1);
  set.InsertMin("beta", 2);
  set.InsertMin("alpha", 0);  // re-insert must not double-count
  EXPECT_EQ(set.Digest(), ShardedVisitedSet::HashSignature("alpha") +
                              ShardedVisitedSet::HashSignature("beta"));
  EXPECT_EQ(set.Size(), 2u);
}

TEST(ShardedVisitedSetTest, ConcurrentCollidingInsertsResolveToGlobalMin) {
  // Every worker claims every signature with its own distinct token, in
  // a different order per worker, so shards see heavy same-key races.
  // Whatever the interleaving: exactly one claimant (the global minimum
  // token) survives per signature, and size/digest match a sequential
  // build of the same set.
  constexpr int kWorkers = 8;
  constexpr int kSignatures = 200;
  auto signature = [](int i) { return "state-" + std::to_string(i); };
  auto token = [](int worker, int i) {
    // Distinct across (worker, i); minimum over workers is worker 0's.
    return static_cast<std::uint64_t>(i) * kWorkers +
           static_cast<std::uint64_t>(worker);
  };

  ShardedVisitedSet set;
  // cells[w][j]: the cell worker w's insert of signature j returned.
  // Cells are read only after the Wait() barrier, as the checker does.
  std::vector<std::vector<const std::uint64_t*>> cells(
      kWorkers, std::vector<const std::uint64_t*>(kSignatures));
  ThreadPool pool(4);
  for (int w = 0; w < kWorkers; ++w) {
    pool.Submit([&, w] {
      for (int i = 0; i < kSignatures; ++i) {
        // Stagger the iteration order per worker to vary lock collisions.
        const int j = (i * 7 + w * 31) % kSignatures;
        cells[w][j] = set.InsertMin(signature(j), token(w, j));
      }
    });
  }
  pool.Wait();
  for (int w = 0; w < kWorkers; ++w) {
    for (int j = 0; j < kSignatures; ++j) {
      EXPECT_EQ(cells[w][j], cells[0][j]) << w << " " << j;
      EXPECT_LE(*cells[w][j], token(w, j));
    }
  }

  ShardedVisitedSet sequential;
  for (int i = 0; i < kSignatures; ++i) {
    sequential.InsertMin(signature(i), token(0, i));
  }
  EXPECT_EQ(set.Size(), static_cast<std::size_t>(kSignatures));
  EXPECT_EQ(set.Digest(), sequential.Digest());
  for (int i = 0; i < kSignatures; ++i) {
    EXPECT_EQ(*cells[0][i], token(0, i)) << i;
  }
}

TEST(ShardedVisitedSetTest, DigestIsInterleavingIndependent) {
  // Build the same signature set twice with different worker counts and
  // insertion orders; the order-independent digest must agree.
  auto build = [](int workers) {
    ShardedVisitedSet set;
    ThreadPool pool(workers);
    for (int w = 0; w < workers; ++w) {
      pool.Submit([&set, w, workers] {
        for (int i = w; i < 500; i += workers) {
          set.InsertMin("sig" + std::to_string(i % 97),
                        static_cast<std::uint64_t>(i));
        }
      });
    }
    pool.Wait();
    return set.Digest();
  };
  const std::uint64_t a = build(1);
  const std::uint64_t b = build(3);
  const std::uint64_t c = build(8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

}  // namespace
}  // namespace check
}  // namespace dynvote
