#include "util/rng.h"

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace dynvote {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.NextDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, OpenLowIntervalNeverZero) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.NextDoubleOpenLow();
    ASSERT_GE(u, Rng::kMinOpenLow);
    ASSERT_LE(u, 1.0);
  }
  // kMinOpenLow is 1 minus the largest NextDouble.
  EXPECT_EQ(Rng::kMinOpenLow, 1.0 - std::nextafter(1.0, 0.0));
}

TEST(RngTest, UniformMeanAndVariance) {
  Rng rng(99);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double u = rng.NextDouble();
    sum += u;
    sq += u * u;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.NextBounded(7), 7u);
  }
  // bound 1 always returns 0
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(rng.NextBounded(1), 0u);
  }
}

TEST(RngTest, BoundedCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    ASSERT_FALSE(rng.NextBernoulli(0.0));
    ASSERT_TRUE(rng.NextBernoulli(1.0));
    ASSERT_FALSE(rng.NextBernoulli(-1.0));
    ASSERT_TRUE(rng.NextBernoulli(2.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(23);
  const int n = 200000;
  const double mean = 36.5;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.NextExponential(mean);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, mean, mean * 0.02);
}

TEST(RngTest, ExponentialMemorylessTail) {
  // P(X > mean) should be e^-1.
  Rng rng(29);
  const int n = 100000;
  int over = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.NextExponential(2.0) > 2.0) ++over;
  }
  EXPECT_NEAR(static_cast<double>(over) / n, std::exp(-1.0), 0.01);
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng parent(31);
  Rng child = parent.Split();
  // The child stream should not collide with the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, StdDistributionCompatibility) {
  // Rng satisfies UniformRandomBitGenerator.
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~std::uint64_t{0});
  Rng rng(41);
  EXPECT_NE(rng(), rng());
}

}  // namespace
}  // namespace dynvote
