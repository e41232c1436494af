#include "util/site_set.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace dynvote {
namespace {

TEST(SiteSetTest, DefaultIsEmpty) {
  SiteSet s;
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Size(), 0);
  EXPECT_FALSE(s.Contains(0));
}

TEST(SiteSetTest, InitializerList) {
  SiteSet s{0, 2, 5};
  EXPECT_EQ(s.Size(), 3);
  EXPECT_TRUE(s.Contains(0));
  EXPECT_FALSE(s.Contains(1));
  EXPECT_TRUE(s.Contains(2));
  EXPECT_TRUE(s.Contains(5));
}

TEST(SiteSetTest, AddRemove) {
  SiteSet s;
  s.Add(3);
  EXPECT_TRUE(s.Contains(3));
  s.Add(3);  // idempotent
  EXPECT_EQ(s.Size(), 1);
  s.Remove(3);
  EXPECT_TRUE(s.Empty());
  s.Remove(3);  // idempotent
  EXPECT_TRUE(s.Empty());
}

TEST(SiteSetTest, OutOfRangeIdsIgnored) {
  SiteSet s;
  s.Add(-1);
  s.Add(64);
  EXPECT_TRUE(s.Empty());
  EXPECT_FALSE(s.Contains(-1));
  EXPECT_FALSE(s.Contains(64));
}

TEST(SiteSetTest, BoundaryIds) {
  SiteSet s{0, 63};
  EXPECT_EQ(s.Size(), 2);
  EXPECT_TRUE(s.Contains(0));
  EXPECT_TRUE(s.Contains(63));
  EXPECT_EQ(s.RankMax(), 0);
  EXPECT_EQ(s.RankMin(), 63);
}

TEST(SiteSetTest, FirstN) {
  EXPECT_EQ(SiteSet::FirstN(0), SiteSet());
  EXPECT_EQ(SiteSet::FirstN(3), (SiteSet{0, 1, 2}));
  EXPECT_EQ(SiteSet::FirstN(64).Size(), 64);
  EXPECT_EQ(SiteSet::FirstN(100).Size(), 64);  // clamped high
}

TEST(SiteSetTest, FirstNClampsNegativeToEmpty) {
  // A negative n used to reach `1 << n`, which is undefined behaviour;
  // it now clamps to the empty set like n == 0.
  EXPECT_EQ(SiteSet::FirstN(-1), SiteSet());
  EXPECT_EQ(SiteSet::FirstN(-64), SiteSet());
  EXPECT_EQ(SiteSet::FirstN(std::numeric_limits<int>::min()), SiteSet());
}

TEST(SiteSetTest, SetAlgebra) {
  SiteSet a{0, 1, 2};
  SiteSet b{2, 3};
  EXPECT_EQ(a.Union(b), (SiteSet{0, 1, 2, 3}));
  EXPECT_EQ(a.Intersect(b), SiteSet{2});
  EXPECT_EQ(a.Minus(b), (SiteSet{0, 1}));
  EXPECT_EQ(b.Minus(a), SiteSet{3});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(SiteSet{4}));
}

TEST(SiteSetTest, SubsetRelation) {
  SiteSet a{1, 2};
  SiteSet b{0, 1, 2, 3};
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
  EXPECT_TRUE(SiteSet().IsSubsetOf(a));
}

TEST(SiteSetTest, RankMaxIsLowestIdPerPaperOrdering) {
  // The paper orders A > B > C; we map the first-listed (highest-ranked)
  // site to the lowest id.
  SiteSet s{4, 2, 7};
  EXPECT_EQ(s.RankMax(), 2);
  EXPECT_EQ(s.RankMin(), 7);
}

TEST(SiteSetTest, IterationAscending) {
  SiteSet s{5, 0, 63, 17};
  std::vector<SiteId> seen(s.begin(), s.end());
  EXPECT_EQ(seen, (std::vector<SiteId>{0, 5, 17, 63}));
}

TEST(SiteSetTest, IterationOfEmptySet) {
  SiteSet s;
  EXPECT_EQ(s.begin(), s.end());
}

TEST(SiteSetTest, ToString) {
  EXPECT_EQ(SiteSet().ToString(), "{}");
  EXPECT_EQ((SiteSet{2, 0, 5}).ToString(), "{0, 2, 5}");
  EXPECT_EQ((SiteSet{0, 1, 2}).ToString(), "{0, 1, 2}");
  EXPECT_EQ((SiteSet{63}).ToString(), "{63}");
}

TEST(SiteSetTest, MaskRoundTrip) {
  SiteSet s{1, 3};
  EXPECT_EQ(SiteSet::FromMask(s.mask()), s);
  EXPECT_EQ(s.mask(), 0b1010u);
}

TEST(SiteSetTest, EqualityIsValueBased) {
  SiteSet a{1, 2};
  SiteSet b;
  b.Add(2);
  b.Add(1);
  EXPECT_EQ(a, b);
}

// Exhaustive cross-check of Size/RankMax/RankMin against a reference for
// all 12-bit masks.
TEST(SiteSetTest, ExhaustiveSmallMasks) {
  for (std::uint64_t mask = 1; mask < (1u << 12); ++mask) {
    SiteSet s = SiteSet::FromMask(mask);
    int size = 0;
    int lo = -1;
    int hi = -1;
    for (int i = 0; i < 12; ++i) {
      if (mask & (1u << i)) {
        ++size;
        if (lo < 0) lo = i;
        hi = i;
      }
    }
    ASSERT_EQ(s.Size(), size) << mask;
    ASSERT_EQ(s.RankMax(), lo) << mask;
    ASSERT_EQ(s.RankMin(), hi) << mask;
  }
}

}  // namespace
}  // namespace dynvote
