#include "obs/metrics.h"

#include <cmath>

#include "util/append.h"

namespace dynvote {

int BucketExponentSlow(double value) {
  if (!(value > 0.0)) return kMinBucketExponent;
  // frexp gives value = m * 2^e with m in [0.5, 1), so [2^i, 2^(i+1))
  // maps to e = i + 1.
  int exponent = 0;
  std::frexp(value, &exponent);
  exponent -= 1;
  return exponent < kMinBucketExponent ? kMinBucketExponent : exponent;
}

void HistogramData::AddToBucket(int exponent, std::uint64_t n) {
  if (bucket_counts.empty()) {
    bucket_base = exponent;
    bucket_counts.push_back(n);
    return;
  }
  if (exponent < bucket_base) {
    bucket_counts.insert(bucket_counts.begin(),
                         static_cast<std::size_t>(bucket_base - exponent), 0);
    bucket_base = exponent;
  }
  const auto index = static_cast<std::size_t>(exponent - bucket_base);
  if (index >= bucket_counts.size()) bucket_counts.resize(index + 1, 0);
  bucket_counts[index] += n;
}

void HistogramData::Merge(const HistogramData& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  if (other.min < min) min = other.min;
  if (other.max > max) max = other.max;
  count += other.count;
  sum += other.sum;
  for (std::size_t i = 0; i < other.bucket_counts.size(); ++i) {
    if (other.bucket_counts[i] == 0) continue;
    AddToBucket(other.bucket_base + static_cast<int>(i),
                other.bucket_counts[i]);
  }
}

std::map<int, std::uint64_t> HistogramData::Buckets() const {
  std::map<int, std::uint64_t> occupied;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    if (bucket_counts[i] == 0) continue;
    occupied.emplace(bucket_base + static_cast<int>(i), bucket_counts[i]);
  }
  return occupied;
}

double HistogramData::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Nearest-rank target with within-bucket linear interpolation: the
  // k-th smallest observation (1-based) sits at rank k; the bucket
  // holding rank q*count is located by cumulative counts, then the
  // position inside it interpolates across the bucket's value range.
  double rank = q * static_cast<double>(count);
  if (rank < 1.0) rank = 1.0;
  std::uint64_t cumulative = 0;
  bool first_occupied = true;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    const std::uint64_t n = bucket_counts[i];
    if (n == 0) continue;
    const int exponent = bucket_base + static_cast<int>(i);
    const double before = static_cast<double>(cumulative);
    cumulative += n;
    const bool last_occupied = cumulative == count;
    if (static_cast<double>(cumulative) < rank && !last_occupied) {
      first_occupied = false;
      continue;
    }
    // The lowest and highest occupied buckets are clamped to the exact
    // observed extrema; interior buckets use their power-of-two range.
    double lo = first_occupied ? min : std::ldexp(1.0, exponent);
    double hi = last_occupied ? max : std::ldexp(1.0, exponent + 1);
    if (lo > hi) lo = hi;
    double value = lo + (hi - lo) * ((rank - before) / static_cast<double>(n));
    if (value < min) value = min;
    if (value > max) value = max;
    return value;
  }
  return max;
}

void MetricsShard::Add(std::string_view counter, std::uint64_t delta) {
  auto it = counters_.find(counter);
  if (it == counters_.end()) {
    counters_.emplace(std::string(counter), delta);
  } else {
    it->second += delta;
  }
}

std::uint64_t* MetricsShard::CounterCell(std::string_view counter) {
  auto it = counters_.find(counter);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(counter), 0).first;
  }
  return &it->second;
}

void MetricsShard::Set(std::string_view gauge, double value) {
  auto it = gauges_.find(gauge);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(gauge), value);
  } else {
    it->second = value;
  }
}

void MetricsShard::Observe(std::string_view histogram, double value) {
  auto it = histograms_.find(histogram);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(histogram), HistogramData{}).first;
  }
  it->second.Observe(value);
}

void MetricsShard::MergeHistogram(std::string_view histogram,
                                  const HistogramData& data) {
  auto it = histograms_.find(histogram);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(histogram), HistogramData{}).first;
  }
  it->second.Merge(data);
}

void MetricsShard::Merge(const MetricsShard& other) {
  for (const auto& [key, value] : other.counters_) {
    auto it = counters_.find(key);
    if (it == counters_.end()) {
      counters_.emplace(key, value);
    } else {
      it->second += value;
    }
  }
  for (const auto& [key, value] : other.gauges_) gauges_[key] = value;
  for (const auto& [key, value] : other.histograms_) {
    histograms_[key].Merge(value);
  }
}

void MetricsShard::Clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  ++cell_epoch_;  // every CounterCell pointer just died
}

std::string MetricsShard::ToJson() const {
  std::string out;
  out.reserve(256 + 64 * (counters_.size() + gauges_.size()));
  out.append("{\n  \"schema\": \"");
  out.append(kMetricsSchema);
  out.append("\",\n  \"counters\": {");
  bool first = true;
  for (const auto& [key, value] : counters_) {
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonString(key, &out);
    out.append(": ");
    AppendDecimal(value, &out);
  }
  out.append(first ? "}" : "\n  }");
  out.append(",\n  \"gauges\": {");
  first = true;
  for (const auto& [key, value] : gauges_) {
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonString(key, &out);
    out.append(": ");
    AppendDouble(value, &out);
  }
  out.append(first ? "}" : "\n  }");
  out.append(",\n  \"histograms\": {");
  first = true;
  for (const auto& [key, hist] : histograms_) {
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonString(key, &out);
    out.append(": {\"count\": ");
    AppendDecimal(hist.count, &out);
    out.append(", \"sum\": ");
    AppendDouble(hist.sum, &out);
    out.append(", \"min\": ");
    AppendDouble(hist.min, &out);
    out.append(", \"max\": ");
    AppendDouble(hist.max, &out);
    out.append(", \"buckets\": {");
    bool first_bucket = true;
    for (std::size_t i = 0; i < hist.bucket_counts.size(); ++i) {
      if (hist.bucket_counts[i] == 0) continue;
      if (!first_bucket) out.append(", ");
      first_bucket = false;
      out.push_back('"');
      AppendDecimal(hist.bucket_base + static_cast<int>(i), &out);
      out.append("\": ");
      AppendDecimal(hist.bucket_counts[i], &out);
    }
    out.append("}}");
  }
  out.append(first ? "}" : "\n  }");
  out.append("\n}\n");
  return out;
}

void MetricsRegistry::Merge(const MetricsShard& shard) {
  MutexLock lock(mutex_);
  merged_.Merge(shard);
}

MetricsShard MetricsRegistry::Snapshot() const {
  MutexLock lock(mutex_);
  return merged_;
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(mutex_);
  return merged_.ToJson();
}

std::string MetricKey(std::string_view name, std::string_view label_csv) {
  std::string key;
  key.reserve(name.size() + label_csv.size() + 2);
  key.append(name);
  if (!label_csv.empty()) {
    key.push_back('{');
    key.append(label_csv);
    key.push_back('}');
  }
  return key;
}

}  // namespace dynvote
