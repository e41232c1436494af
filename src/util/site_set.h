// SiteSet: a small, value-semantic set of site identifiers backed by a
// 64-bit mask. Partition sets, reachable sets and quorum sets in the voting
// protocols are all SiteSets; the lexicographic tie-break of the paper maps
// onto Max()/Min() of the mask.

#pragma once

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <ostream>
#include <string>

namespace dynvote {

/// Identifier of a site holding a physical copy. Sites are numbered from 0;
/// the paper numbers its machines 1..8, which examples map to ids 0..7.
using SiteId = int;

/// Maximum number of distinct sites a SiteSet can hold.
inline constexpr int kMaxSites = 64;

/// A set of sites, stored as a bitmask. All operations are O(1) except
/// iteration, which is O(|set|).
///
/// The paper orders sites linearly to break ties ("suppose the sites are
/// ordered so that A > B > C"). We adopt the convention that *lower* ids
/// rank higher (site 0 is the maximum element), matching the paper's
/// example where site A — listed first — wins ties. RankMax() returns that
/// element.
class SiteSet {
 public:
  /// Constructs the empty set.
  constexpr SiteSet() = default;

  /// Constructs a set from an explicit list of site ids.
  constexpr SiteSet(std::initializer_list<SiteId> sites) {
    for (SiteId s : sites) Add(s);
  }

  /// Returns the set {0, 1, ..., n-1}. Clamped: n <= 0 gives the empty
  /// set (a negative shift would be undefined behaviour), n >= kMaxSites
  /// gives every site.
  static constexpr SiteSet FirstN(int n) {
    SiteSet set;
    if (n <= 0) return set;
    set.mask_ = (n >= kMaxSites) ? ~std::uint64_t{0}
                                 : ((std::uint64_t{1} << n) - 1);
    return set;
  }

  /// Builds a set directly from a bitmask.
  static constexpr SiteSet FromMask(std::uint64_t mask) {
    SiteSet set;
    set.mask_ = mask;
    return set;
  }

  constexpr std::uint64_t mask() const { return mask_; }
  constexpr bool Empty() const { return mask_ == 0; }
  constexpr int Size() const { return std::popcount(mask_); }

  constexpr bool Contains(SiteId site) const {
    return Valid(site) && (mask_ & Bit(site)) != 0;
  }

  constexpr void Add(SiteId site) {
    if (Valid(site)) mask_ |= Bit(site);
  }
  constexpr void Remove(SiteId site) {
    if (Valid(site)) mask_ &= ~Bit(site);
  }

  /// Set algebra. All return new sets.
  constexpr SiteSet Union(SiteSet other) const {
    return FromMask(mask_ | other.mask_);
  }
  constexpr SiteSet Intersect(SiteSet other) const {
    return FromMask(mask_ & other.mask_);
  }
  constexpr SiteSet Minus(SiteSet other) const {
    return FromMask(mask_ & ~other.mask_);
  }
  constexpr bool IsSubsetOf(SiteSet other) const {
    return (mask_ & ~other.mask_) == 0;
  }
  constexpr bool Intersects(SiteSet other) const {
    return (mask_ & other.mask_) != 0;
  }

  /// The highest-ranking member under the paper's linear ordering
  /// (lowest id). Must not be called on the empty set.
  constexpr SiteId RankMax() const { return std::countr_zero(mask_); }

  /// The lowest-ranking member (highest id). Must not be called on the
  /// empty set.
  constexpr SiteId RankMin() const {
    return kMaxSites - 1 - std::countl_zero(mask_);
  }

  friend constexpr bool operator==(SiteSet a, SiteSet b) {
    return a.mask_ == b.mask_;
  }

  /// Iterates member ids in increasing order.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = SiteId;
    using difference_type = std::ptrdiff_t;
    using pointer = const SiteId*;
    using reference = SiteId;

    constexpr Iterator() = default;
    explicit constexpr Iterator(std::uint64_t rest) : rest_(rest) {}

    constexpr SiteId operator*() const { return std::countr_zero(rest_); }
    constexpr Iterator& operator++() {
      rest_ &= rest_ - 1;  // clear lowest set bit
      return *this;
    }
    constexpr Iterator operator++(int) {
      Iterator tmp = *this;
      ++*this;
      return tmp;
    }
    friend constexpr bool operator==(Iterator a, Iterator b) {
      return a.rest_ == b.rest_;
    }

   private:
    std::uint64_t rest_ = 0;
  };

  constexpr Iterator begin() const { return Iterator(mask_); }
  constexpr Iterator end() const { return Iterator(0); }

  /// "{0, 2, 5}" — member ids in increasing order.
  std::string ToString() const;
  /// Appends ToString()'s text to `out` without a temporary.
  void AppendTo(std::string* out) const;

 private:
  static constexpr bool Valid(SiteId site) {
    return site >= 0 && site < kMaxSites;
  }
  static constexpr std::uint64_t Bit(SiteId site) {
    return std::uint64_t{1} << site;
  }

  std::uint64_t mask_ = 0;
};

std::ostream& operator<<(std::ostream& os, SiteSet set);

}  // namespace dynvote
