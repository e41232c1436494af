// Rank normalization for canonical state signatures. Protocols count
// operations and versions with monotonic counters, but their decisions
// consume only the counters' relative order; a signature that emits each
// counter's rank among the distinct values present lets states that
// differ only in absolute counts merge.

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "util/logging.h"
#include "util/site_set.h"

namespace dynvote {

/// Ranks of up to one counter per site among their distinct values, in a
/// fixed array: no allocation. Add every value, Seal once, then query.
class DenseRanks {
 public:
  void Add(std::int64_t value) {
    DYNVOTE_DCHECK(size_ < kMaxSites);
    values_[static_cast<std::size_t>(size_++)] = value;
  }

  /// Sorts the values and drops duplicates; call after the last Add.
  void Seal() {
    auto* end = values_.data() + size_;
    std::sort(values_.data(), end);
    size_ = static_cast<int>(std::unique(values_.data(), end) -
                             values_.data());
  }

  /// Rank (0 = smallest) of `value`, which must have been added, among
  /// the distinct values.
  int RankOf(std::int64_t value) const {
    return static_cast<int>(
        std::lower_bound(values_.data(), values_.data() + size_, value) -
        values_.data());
  }

 private:
  // Only [0, size_) is ever read, and Add writes it first. Left
  // uninitialized on purpose: zeroing 512 bytes per use cost about a
  // fifth of a checker signature.
  std::array<std::int64_t, kMaxSites> values_;
  int size_ = 0;
};

}  // namespace dynvote
