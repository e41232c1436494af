// The metrics registry: counter/gauge/histogram semantics, deterministic
// shard merging, the stable JSON export, and thread-safety of the
// registry facade (exercised under TSan in CI).

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/append.h"
#include "util/rng.h"
#include "test_text.h"

namespace dynvote {
namespace {

TEST(MetricsShardTest, CountersAccumulate) {
  MetricsShard shard;
  shard.Add("events");
  shard.Add("events", 4);
  EXPECT_EQ(shard.counters().at("events"), 5u);
}

TEST(MetricsShardTest, GaugesKeepTheLastValue) {
  MetricsShard shard;
  shard.Set("queue_depth", 3.0);
  shard.Set("queue_depth", 1.5);
  EXPECT_EQ(shard.gauges().at("queue_depth"), 1.5);
}

TEST(MetricsShardTest, HistogramTracksCountSumMinMax) {
  MetricsShard shard;
  shard.Observe("latency", 2.0);
  shard.Observe("latency", 8.0);
  shard.Observe("latency", 0.5);
  const HistogramData& h = shard.histograms().at("latency");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 10.5);
  EXPECT_EQ(h.min, 0.5);
  EXPECT_EQ(h.max, 8.0);
}

TEST(MetricsShardTest, HistogramBucketsArePowersOfTwo) {
  HistogramData h;
  h.Observe(1.0);   // [2^0, 2^1)
  h.Observe(1.5);   // [2^0, 2^1)
  h.Observe(2.0);   // [2^1, 2^2)
  h.Observe(0.25);  // [2^-2, 2^-1)
  EXPECT_EQ(h.Buckets().at(0), 2u);
  EXPECT_EQ(h.Buckets().at(1), 1u);
  EXPECT_EQ(h.Buckets().at(-2), 1u);
}

TEST(MetricsShardTest, NonPositiveValuesLandInTheLowestBucket) {
  HistogramData h;
  h.Observe(0.0);
  h.Observe(-3.0);
  EXPECT_EQ(h.count, 2u);
  ASSERT_EQ(h.Buckets().size(), 1u);
  // Whatever the floor exponent is, both land together below every
  // positive value's bucket.
  EXPECT_EQ(h.Buckets().begin()->second, 2u);
  EXPECT_LT(h.Buckets().begin()->first, std::ilogb(0.25));
}

TEST(MetricsShardTest, MergeCombinesAllThreeKinds) {
  MetricsShard a;
  a.Add("hits", 2);
  a.Set("level", 1.0);
  a.Observe("size", 4.0);
  MetricsShard b;
  b.Add("hits", 3);
  b.Add("misses");
  b.Set("level", 2.0);
  b.Observe("size", 16.0);
  a.Merge(b);
  EXPECT_EQ(a.counters().at("hits"), 5u);
  EXPECT_EQ(a.counters().at("misses"), 1u);
  EXPECT_EQ(a.gauges().at("level"), 2.0);  // incoming value wins
  EXPECT_EQ(a.histograms().at("size").count, 2u);
  EXPECT_EQ(a.histograms().at("size").sum, 20.0);
}

TEST(MetricsShardTest, JsonIsInsertionOrderIndependent) {
  MetricsShard forward;
  forward.Add("a");
  forward.Add("b", 2);
  forward.Observe("h", 1.0);
  MetricsShard backward;
  backward.Observe("h", 1.0);
  backward.Add("b", 2);
  backward.Add("a");
  EXPECT_EQ(forward.ToJson(), backward.ToJson());
}

TEST(MetricsShardTest, JsonNamesTheSchema) {
  MetricsShard shard;
  EXPECT_NE(shard.ToJson().find(kMetricsSchema), std::string::npos);
}

TEST(MetricsShardTest, ClearEmptiesTheShard) {
  MetricsShard shard;
  shard.Add("x");
  shard.Set("y", 1.0);
  shard.Observe("z", 1.0);
  EXPECT_FALSE(shard.empty());
  shard.Clear();
  EXPECT_TRUE(shard.empty());
}

TEST(HistogramQuantileTest, EmptyHistogramReturnsZero) {
  HistogramData h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
}

TEST(HistogramQuantileTest, EndpointsAreTheExactExtrema) {
  HistogramData h;
  for (double v : {3.7, 9.1, 250.0, 0.4}) h.Observe(v);
  EXPECT_EQ(h.Quantile(0.0), 0.4);
  EXPECT_EQ(h.Quantile(1.0), 250.0);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_EQ(h.Quantile(-1.0), 0.4);
  EXPECT_EQ(h.Quantile(2.0), 250.0);
}

TEST(HistogramQuantileTest, SingleValueHistogramIsFlat) {
  HistogramData h;
  h.Observe(42.0);
  for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(h.Quantile(q), 42.0) << "q=" << q;
  }
}

TEST(HistogramQuantileTest, EstimatesStayWithinTheBucketWidth) {
  // The documented error bound: the estimate lands in the same
  // power-of-two bucket as the exact nearest-rank order statistic, so it
  // is off by at most a factor of two.
  Rng rng(20260808);
  std::vector<double> samples;
  HistogramData h;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.NextExponential(25.0) + 0.01;
    samples.push_back(v);
    h.Observe(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    double rank = q * static_cast<double>(samples.size());
    if (rank < 1.0) rank = 1.0;
    const double exact =
        samples[static_cast<std::size_t>(std::ceil(rank)) - 1];
    const double estimate = h.Quantile(q);
    EXPECT_GE(estimate, exact / 2.0) << "q=" << q;
    EXPECT_LE(estimate, exact * 2.0) << "q=" << q;
  }
}

TEST(HistogramQuantileTest, QuantilesAreMonotone) {
  Rng rng(7);
  HistogramData h;
  for (int i = 0; i < 500; ++i) h.Observe(rng.NextDouble() * 100.0 + 0.5);
  double prev = h.Quantile(0.0);
  for (int i = 1; i <= 100; ++i) {
    const double cur = h.Quantile(static_cast<double>(i) / 100.0);
    EXPECT_GE(cur, prev) << "q=" << i / 100.0;
    prev = cur;
  }
}

TEST(MetricsShardTest, MergeHistogramMatchesIndividualObserves) {
  // The batched flush path (ServingStage::Finish) must be
  // indistinguishable from per-value Observe calls.
  HistogramData local;
  local.Observe(1.0);
  local.Observe(6.5);
  local.Observe(0.125);
  MetricsShard batched;
  batched.Observe("lat", 99.0);  // pre-existing data folds, not replaces
  batched.MergeHistogram("lat", local);
  MetricsShard individual;
  individual.Observe("lat", 99.0);
  individual.Observe("lat", 1.0);
  individual.Observe("lat", 6.5);
  individual.Observe("lat", 0.125);
  EXPECT_EQ(batched.ToJson(), individual.ToJson());
}

/// The histogram as it was first written — sparse std::map buckets,
/// one tree walk per observation — kept here as the reference for
/// HistogramData's dense buckets: Observe, Merge, Quantile and the
/// bucket object of the JSON export.
struct MapHistogramReference {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::map<int, std::uint64_t> buckets;

  static int BucketExponent(double value) {
    if (!(value > 0.0)) return -64;
    int exponent = 0;
    std::frexp(value, &exponent);
    exponent -= 1;
    return exponent < -64 ? -64 : exponent;
  }

  void Observe(double value) {
    if (count == 0) {
      min = value;
      max = value;
    } else {
      if (value < min) min = value;
      if (value > max) max = value;
    }
    ++count;
    sum += value;
    ++buckets[BucketExponent(value)];
  }

  void Merge(const MapHistogramReference& other) {
    if (other.count == 0) return;
    if (count == 0) {
      *this = other;
      return;
    }
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
    count += other.count;
    sum += other.sum;
    for (const auto& [exponent, n] : other.buckets) buckets[exponent] += n;
  }

  double Quantile(double q) const {
    if (count == 0) return 0.0;
    if (q <= 0.0) return min;
    if (q >= 1.0) return max;
    double rank = q * static_cast<double>(count);
    if (rank < 1.0) rank = 1.0;
    std::uint64_t cumulative = 0;
    bool first_occupied = true;
    for (const auto& [exponent, n] : buckets) {
      if (n == 0) continue;
      const double before = static_cast<double>(cumulative);
      cumulative += n;
      const bool last_occupied = cumulative == count;
      if (static_cast<double>(cumulative) < rank && !last_occupied) {
        first_occupied = false;
        continue;
      }
      double lo = first_occupied ? min : std::ldexp(1.0, exponent);
      double hi = last_occupied ? max : std::ldexp(1.0, exponent + 1);
      if (lo > hi) lo = hi;
      double value =
          lo + (hi - lo) * ((rank - before) / static_cast<double>(n));
      if (value < min) value = min;
      if (value > max) value = max;
      return value;
    }
    return max;
  }

  /// The histogram's object in a dynvote-metrics-v1 export.
  std::string Json() const {
    std::string out = "{\"count\": ";
    AppendDecimal(count, &out);
    out.append(", \"sum\": ");
    AppendDouble(sum, &out);
    out.append(", \"min\": ");
    AppendDouble(min, &out);
    out.append(", \"max\": ");
    AppendDouble(max, &out);
    out.append(", \"buckets\": {");
    bool first = true;
    for (const auto& [exponent, n] : buckets) {
      if (!first) out.append(", ");
      first = false;
      out.push_back('"');
      AppendDecimal(exponent, &out);
      out.append("\": ");
      AppendDecimal(n, &out);
    }
    out.append("}}");
    return out;
  }
};

/// A value from one of several ranges, edge cases included: <= 0,
/// subnormals, the smallest normal, tiny, unit-scale and huge values.
double HostileValue(Rng& rng) {
  switch (rng.NextBounded(9)) {
    case 0:
      return rng.NextBernoulli(0.5) ? 0.0 : -rng.NextExponential(5.0);
    case 1:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng.NextBounded(1000));
    case 2:
      return std::numeric_limits<double>::min() *
             (1.0 + rng.NextDouble());
    case 3:
      return std::ldexp(1.0 + rng.NextDouble(),
                        -70 + static_cast<int>(rng.NextBounded(12)));
    case 4:
      return 1e300 * (1.0 + rng.NextDouble());
    case 5:
      return std::ldexp(1.0, static_cast<int>(rng.NextBounded(40)) - 20);
    default:
      return rng.NextExponential(3.0);
  }
}

void ExpectSameHistogram(const HistogramData& got,
                         const MapHistogramReference& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(got.Buckets(), want.buckets);
  for (double q : {0.0, 1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                   0.999, 0.999999, 1.0}) {
    EXPECT_EQ(got.Quantile(q), want.Quantile(q)) << "q=" << q;
  }
  MetricsShard shard;
  shard.MergeHistogram("h", got);
  const std::string json = shard.ToJson();
  EXPECT_NE(json.find("\"h\": " + want.Json()), std::string::npos) << json;
}

TEST(MetricsShardTest, DenseBucketsMatchTheMapReference) {
  Rng rng(20260704);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(testing_util::Cat({"round ", std::to_string(round)}));
    HistogramData got;
    MapHistogramReference want;
    const int n = 1 + static_cast<int>(rng.NextBounded(400));
    for (int i = 0; i < n; ++i) {
      const double value = HostileValue(rng);
      got.Observe(value);
      want.Observe(value);
    }
    ExpectSameHistogram(got, want);
  }
}

TEST(MetricsShardTest, DenseMergeMatchesTheMapReference) {
  // Disjoint ranges (below, above, and with a gap between), overlapping
  // ranges, and merges into and from an empty histogram, in both orders.
  Rng rng(77);
  auto fill = [&rng](double lo_exp, double hi_exp, int n, HistogramData* got,
                     MapHistogramReference* want) {
    for (int i = 0; i < n; ++i) {
      const double value =
          std::ldexp(1.0 + rng.NextDouble(),
                     static_cast<int>(lo_exp) +
                         static_cast<int>(rng.NextBounded(
                             static_cast<std::uint64_t>(hi_exp - lo_exp))));
      got->Observe(value);
      want->Observe(value);
    }
  };
  const double ranges[][2] = {{-80, -60}, {-10, 0}, {-3, 5},
                              {2, 12},    {40, 60}, {900, 1000}};
  for (const auto& a : ranges) {
    for (const auto& b : ranges) {
      HistogramData got_a, got_b;
      MapHistogramReference want_a, want_b;
      fill(a[0], a[1], 50, &got_a, &want_a);
      fill(b[0], b[1], 70, &got_b, &want_b);
      if (rng.NextBernoulli(0.3)) {
        got_a.Observe(0.0);
        want_a.Observe(0.0);
      }
      HistogramData got = got_a;
      MapHistogramReference want = want_a;
      got.Merge(got_b);
      want.Merge(want_b);
      ExpectSameHistogram(got, want);
      HistogramData empty;
      empty.Merge(got);
      ExpectSameHistogram(empty, want);
      got.Merge(HistogramData{});
      ExpectSameHistogram(got, want);
    }
  }
}

TEST(MetricsShardTest, CounterCellPointerIsStableAcrossInserts) {
  MetricsShard shard;
  std::uint64_t* cell = shard.CounterCell("hot");
  *cell += 5;
  // Map growth must not move the node the pointer refers to.
  for (int i = 0; i < 100; ++i) {
    shard.CounterCell(testing_util::Cat({"k", std::to_string(i)}));
  }
  *cell += 1;
  EXPECT_EQ(shard.CounterCell("hot"), cell);
  EXPECT_EQ(shard.counters().at("hot"), 6u);
  // Add() and the cached cell hit the same storage.
  shard.Add("hot", 4);
  EXPECT_EQ(*cell, 10u);
}

TEST(MetricsShardTest, ClearBumpsTheCellEpoch) {
  MetricsShard shard;
  const std::uint64_t before = shard.cell_epoch();
  *shard.CounterCell("hot") = 3;
  shard.Clear();
  // Every cached CounterCell pointer just died; the epoch is the
  // caller's signal to re-resolve.
  EXPECT_GT(shard.cell_epoch(), before);
  EXPECT_TRUE(shard.empty());
  EXPECT_EQ(*shard.CounterCell("hot"), 0u);
}

TEST(MetricKeyTest, BuildsLabeledKeys) {
  EXPECT_EQ(MetricKey("access_reason", "protocol=LDV,reason=denied_tie_lost"),
            "access_reason{protocol=LDV,reason=denied_tie_lost}");
  EXPECT_EQ(MetricKey("plain", ""), "plain");
}

TEST(MetricsRegistryTest, ConcurrentMergesAreSafeAndComplete) {
  // The replicated-experiment join path: many worker shards folding into
  // one registry. Run under TSan in CI to pin down the locking.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kMergesPerThread = 50;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      for (int i = 0; i < kMergesPerThread; ++i) {
        MetricsShard shard;
        shard.Add("merges");
        shard.Observe("payload", 1.0);
        registry.Merge(shard);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  MetricsShard merged = registry.Snapshot();
  EXPECT_EQ(merged.counters().at("merges"),
            static_cast<std::uint64_t>(kThreads * kMergesPerThread));
  EXPECT_EQ(merged.histograms().at("payload").count,
            static_cast<std::uint64_t>(kThreads * kMergesPerThread));
  EXPECT_EQ(registry.ToJson(), merged.ToJson());
}

}  // namespace
}  // namespace dynvote
