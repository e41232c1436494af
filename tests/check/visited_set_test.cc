// The sharded visited set under contention: colliding concurrent inserts
// must resolve to the single minimum claim token, and the set's size and
// order-independent digest must not depend on which worker won which
// race. The probe table must keep signatures that share a hash prefix,
// a shard or a home slot apart, and cells must outlive every growth.
// Runs under the thread-sanitize CI filter.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "check/visited_set.h"
#include "util/thread_pool.h"
#include "test_text.h"

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
    set.InsertMin(testing_util::Cat({"filler-", std::to_string(i)}),
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
  auto signature = [](int i) {
    return testing_util::Cat({"state-", std::to_string(i)});
  };
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
          set.InsertMin(testing_util::Cat({"sig", std::to_string(i % 97)}),
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

// A distinct signature about as long as the checker's (~48 bytes).
std::string LongSignature(int i) {
  std::string s = testing_util::Cat(
      {"section3/replicas=ab|ac|bc/history=", std::to_string(i)});
  s.resize(48, '.');
  return s;
}

TEST(ShardedVisitedSetTest, GrowthAcrossEveryShardKeepsEveryCell) {
  // Enough signatures that every shard's probe table doubles several
  // times and its arena reallocates; every cell handed out before a
  // growth must still be the signature's cell after it.
  constexpr int kSignatures = 20000;
  ShardedVisitedSet set;
  std::vector<const std::uint64_t*> cells;
  std::array<int, ShardedVisitedSet::kShards> per_shard{};
  std::set<std::string> reference;
  std::uint64_t reference_digest = 0;
  for (int i = 0; i < kSignatures; ++i) {
    const std::string signature = LongSignature(i);
    const std::uint64_t hash = ShardedVisitedSet::HashSignature(signature);
    ++per_shard[static_cast<std::size_t>(ShardedVisitedSet::ShardOf(hash))];
    ASSERT_TRUE(reference.insert(signature).second);
    reference_digest += hash;
    cells.push_back(set.InsertMin(signature, static_cast<std::uint64_t>(i)));
  }
  for (int count : per_shard) {
    // Over 4x kInitialSlots entries need over 8x kInitialSlots slots at
    // half load: every shard's table doubled at least four times.
    EXPECT_GT(count,
              static_cast<int>(ShardedVisitedSet::kInitialSlots) * 4);
  }
  for (int i = 0; i < kSignatures; ++i) {
    ASSERT_EQ(*cells[i], static_cast<std::uint64_t>(i)) << i;
    // Re-inserts (larger tokens lose) return the very same cell.
    ASSERT_EQ(set.InsertMin(LongSignature(i),
                            static_cast<std::uint64_t>(kSignatures + i)),
              cells[i])
        << i;
  }
  EXPECT_EQ(set.Size(), reference.size());
  EXPECT_EQ(set.Digest(), reference_digest);
}

TEST(ShardedVisitedSetTest, PrefixesAndLengthsAreDistinctSignatures) {
  // An arena entry is (end offset, bytes): signatures that are prefixes
  // of one another, differ only in length, or hold NUL bytes must never
  // compare equal.
  const std::vector<std::string> signatures = {
      "", "a", "ab", "abc", std::string("a\0", 2), std::string("\0", 1)};
  ShardedVisitedSet set;
  std::vector<const std::uint64_t*> cells;
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    cells.push_back(set.InsertMin(signatures[i], 10 + i));
  }
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    EXPECT_EQ(*cells[i], 10 + i) << i;
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(cells[i], cells[j]);
    EXPECT_EQ(set.InsertMin(signatures[i], 100), cells[i]) << i;
  }
  EXPECT_EQ(set.Size(), signatures.size());
}

TEST(ShardedVisitedSetTest, SameShardAndHomeSlotSignaturesBothResolve) {
  // Brute-force three signatures that land in one shard and probe the
  // same home slot — the table's last one, so the third probe wraps to
  // slot 0. Each must keep its own cell, found again past the others.
  const std::size_t last = ShardedVisitedSet::kInitialSlots - 1;
  std::vector<std::string> colliding;
  int shard = -1;
  for (int i = 0; colliding.size() < 3; ++i) {
    const std::string signature =
        testing_util::Cat({"collide-", std::to_string(i)});
    const std::uint64_t hash = ShardedVisitedSet::HashSignature(signature);
    if (ShardedVisitedSet::HomeSlot(
            hash, ShardedVisitedSet::kInitialSlots) != last) {
      continue;
    }
    if (shard < 0) shard = ShardedVisitedSet::ShardOf(hash);
    if (ShardedVisitedSet::ShardOf(hash) == shard) {
      colliding.push_back(signature);
    }
  }
  ShardedVisitedSet set;
  const std::uint64_t* a = set.InsertMin(colliding[0], 5);
  const std::uint64_t* b = set.InsertMin(colliding[1], 6);
  const std::uint64_t* c = set.InsertMin(colliding[2], 7);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
  EXPECT_EQ(set.InsertMin(colliding[2], 3), c);
  EXPECT_EQ(set.InsertMin(colliding[1], 9), b);
  EXPECT_EQ(set.InsertMin(colliding[0], 1), a);
  EXPECT_EQ(*a, 1u);
  EXPECT_EQ(*b, 6u);
  EXPECT_EQ(*c, 3u);
  EXPECT_EQ(set.Size(), 3u);
  EXPECT_EQ(set.Digest(), ShardedVisitedSet::HashSignature(colliding[0]) +
                              ShardedVisitedSet::HashSignature(colliding[1]) +
                              ShardedVisitedSet::HashSignature(colliding[2]));
}

TEST(ShardedVisitedSetTest, SameProbeTagSignaturesStayDistinct) {
  // A probe slot keeps only the low 32 bits of the hash, so the set
  // must fall through to the bytes. These two equal-length signatures
  // (found by brute force) share those bits and the shard's top bits.
  const std::string a = "tag-1657029";
  const std::string b = "tag-3841840";
  const std::uint64_t hash_a = ShardedVisitedSet::HashSignature(a);
  const std::uint64_t hash_b = ShardedVisitedSet::HashSignature(b);
  ASSERT_NE(hash_a, hash_b);
  ASSERT_EQ(static_cast<std::uint32_t>(hash_a),
            static_cast<std::uint32_t>(hash_b));
  ASSERT_EQ(ShardedVisitedSet::ShardOf(hash_a),
            ShardedVisitedSet::ShardOf(hash_b));

  ShardedVisitedSet set;
  const std::uint64_t* cell_a = set.InsertMin(a, 4);
  const std::uint64_t* cell_b = set.InsertMin(b, 8);
  EXPECT_NE(cell_a, cell_b);
  EXPECT_EQ(set.InsertMin(b, 2), cell_b);
  EXPECT_EQ(set.InsertMin(a, 6), cell_a);
  EXPECT_EQ(*cell_a, 4u);
  EXPECT_EQ(*cell_b, 2u);
  EXPECT_EQ(set.Size(), 2u);
  EXPECT_EQ(set.Digest(), hash_a + hash_b);
}

TEST(ShardedVisitedSetTest, FourThreadRaceAcrossGrowthMatchesOneThread) {
  // Four threads insert the same signatures in different orders while the
  // shards grow under them; the result must equal a one-thread build:
  // same size and digest, one cell per signature holding the minimum.
  constexpr int kThreads = 4;
  constexpr int kSignatures = 12000;
  auto token = [](int thread, int i) {
    return static_cast<std::uint64_t>(i) * kThreads +
           static_cast<std::uint64_t>(thread);
  };
  ShardedVisitedSet set;
  std::vector<std::vector<const std::uint64_t*>> cells(
      kThreads, std::vector<const std::uint64_t*>(kSignatures));
  ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&, t] {
      for (int k = 0; k < kSignatures; ++k) {
        // Thread t walks forwards from an offset; odd threads walk back.
        const int i = (t % 2 == 0 ? k : kSignatures - 1 - k) +
                      t * (kSignatures / kThreads);
        const int j = i % kSignatures;
        cells[t][j] = set.InsertMin(LongSignature(j), token(t, j));
      }
    });
  }
  pool.Wait();

  ShardedVisitedSet sequential;
  for (int i = 0; i < kSignatures; ++i) {
    sequential.InsertMin(LongSignature(i), token(0, i));
  }
  EXPECT_EQ(set.Size(), sequential.Size());
  EXPECT_EQ(set.Digest(), sequential.Digest());
  for (int j = 0; j < kSignatures; ++j) {
    for (int t = 1; t < kThreads; ++t) ASSERT_EQ(cells[t][j], cells[0][j]);
    ASSERT_EQ(*cells[0][j], token(0, j)) << j;
  }
}

}  // namespace
}  // namespace check
}  // namespace dynvote
