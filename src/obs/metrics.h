// Counters, gauges and histograms with per-thread sharding. Each
// replication worker mutates its own MetricsShard with no
// synchronization at all; shards are merged into the MetricsRegistry at
// join time, in replication order, so the exported JSON is deterministic
// for any --jobs. Keys are flat strings with inline labels, e.g.
//   access_reason{protocol=LDV,reason=denied_tie_lost}
// — ordering by key gives a stable export without a label model.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace dynvote {

/// Metrics schema identifier in the exported JSON; bump on incompatible
/// field-set changes.
inline constexpr const char kMetricsSchema[] = "dynvote-metrics-v1";

/// The smallest bucket exponent: values <= 0, NaN and values below
/// 2^-64 all land in this bucket.
inline constexpr int kMinBucketExponent = -64;

/// BucketExponent through frexp, for what is not a positive normal
/// double (subnormals and infinity).
int BucketExponentSlow(double value);

/// The exponent e of the histogram bucket [2^e, 2^(e+1)) holding `value`.
inline int BucketExponent(double value) {
  if (!(value > 0.0)) return kMinBucketExponent;
  // A positive normal double is 1.m * 2^(biased - 1023), so it lies in
  // [2^e, 2^(e+1)) for e = biased - 1023, read straight off the bits.
  const int biased =
      static_cast<int>(std::bit_cast<std::uint64_t>(value) >> 52);
  if (biased == 0 || biased == 0x7FF) return BucketExponentSlow(value);
  const int exponent = biased - 1023;
  return exponent < kMinBucketExponent ? kMinBucketExponent : exponent;
}

/// Fixed-boundary histogram: count/sum/min/max plus powers-of-two
/// buckets (bucket i counts values in [2^i, 2^(i+1)); negative i covers
/// sub-unit values; values <= 0 land in the lowest bucket). The buckets
/// are stored densely over the exponent range observed so far, so an
/// observation is one index, not a tree walk.
struct HistogramData {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// bucket_counts[i] counts the observations in [2^e, 2^(e+1)) for
  /// e = bucket_base + i. Cells inside the range may be zero; an
  /// unoccupied bucket is never exported.
  int bucket_base = 0;
  std::vector<std::uint64_t> bucket_counts;

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
    const int exponent = BucketExponent(value);
    // Below the range the difference wraps to a huge index.
    const auto index = static_cast<std::size_t>(
        static_cast<unsigned>(exponent - bucket_base));
    if (index < bucket_counts.size()) {
      ++bucket_counts[index];
    } else {
      AddToBucket(exponent, 1);
    }
  }
  void Merge(const HistogramData& other);

  /// The occupied buckets, exponent -> count.
  std::map<int, std::uint64_t> Buckets() const;

  /// Estimates the q-quantile (q in [0, 1]) from the bucket counts with
  /// linear interpolation inside the covering bucket. The lowest and
  /// highest occupied buckets are clamped to the exact observed min/max,
  /// so Quantile(0) == min and Quantile(1) == max; an empty histogram
  /// returns 0. Error is bounded by the bucket width (a factor of 2).
  double Quantile(double q) const;

 private:
  /// Adds `n` to the bucket of `exponent`, widening the stored range.
  void AddToBucket(int exponent, std::uint64_t n);
};

/// Single-writer bundle of metrics. Not thread-safe by design: one shard
/// per worker, merged under the registry lock at join.
class MetricsShard {
 public:
  void Add(std::string_view counter, std::uint64_t delta = 1);
  /// Returns the address of the named counter's value, inserting a zero
  /// cell if absent. std::map nodes never move, so the pointer stays
  /// valid until Clear() — the only operation that drops cells — which
  /// bumps cell_epoch(). Hot emitters resolve a key once per
  /// (shard, epoch) and then bump the cell directly, skipping the
  /// per-event key build and map walk.
  std::uint64_t* CounterCell(std::string_view counter);
  /// Invalidation token for cached CounterCell pointers.
  std::uint64_t cell_epoch() const { return cell_epoch_; }
  void Set(std::string_view gauge, double value);
  void Observe(std::string_view histogram, double value);
  /// Folds a pre-accumulated histogram into the named one — the bulk
  /// counterpart of Observe for stages that batch locally (ServingStage)
  /// and flush once.
  void MergeHistogram(std::string_view histogram, const HistogramData& data);

  /// Folds `other` into this shard: counters add, gauges take the
  /// incoming value (last merge wins — deterministic because merges run
  /// in replication order), histograms combine.
  void Merge(const MetricsShard& other);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  void Clear();

  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, double, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, HistogramData, std::less<>>& histograms() const {
    return histograms_;
  }

  /// Renders the shard as a dynvote-metrics-v1 JSON document (sorted
  /// keys, 17-digit doubles from util/append.h: byte-stable for
  /// identical contents).
  std::string ToJson() const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, HistogramData, std::less<>> histograms_;
  std::uint64_t cell_epoch_ = 0;
};

/// Thread-safe facade over a merged shard. Workers never touch it on the
/// hot path — they batch into local shards and call Merge once.
class MetricsRegistry {
 public:
  void Merge(const MetricsShard& shard) DYNVOTE_EXCLUDES(mutex_);
  /// Copies the merged state out under the lock.
  MetricsShard Snapshot() const DYNVOTE_EXCLUDES(mutex_);
  std::string ToJson() const DYNVOTE_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  MetricsShard merged_ DYNVOTE_GUARDED_BY(mutex_);
};

/// Builds "name{k1=v1,k2=v2}"-style keys without iostream machinery.
std::string MetricKey(std::string_view name, std::string_view label_csv);

}  // namespace dynvote
