// Mutable up/down state over an immutable Topology, plus the reachability
// queries every voting protocol needs: which live sites can currently talk
// to one another. Sites on one segment always communicate while up;
// cross-segment communication requires a path of live bridges.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/topology.h"
#include "obs/context.h"
#include "util/site_set.h"

namespace dynvote {

/// Up/down state of all sites and repeaters, with connectivity queries.
///
/// Connectivity queries are answered from a cached union-find over
/// segments and the component list derived from it, allocation-free on
/// the query path. A mutation either updates the caches in place or marks
/// them stale, and the next query rebuilds both together (`Refresh()`),
/// after which every query is a cached lookup:
///   - a flip of a site that hosts no gateway, on clean caches, leaves
///     the union-find as it is and adds the site to, or removes it from,
///     its component's mask in place — unless that empties or fills the
///     component's live set, which changes the list's shape;
///   - every other mutation (a gateway or repeater flip, `AllUp`, a flip
///     on stale caches, or one that empties or fills a component) marks
///     the caches stale.
/// Either way the list is the one a full rebuild gives, in the same
/// order (ascending root segment). `Components()` returns the cached list
/// by const reference — the reference stays valid until the next
/// mutation.
///
/// `generation()` is a monotonic counter bumped only by *effective*
/// mutations (a SetSiteUp that flips nothing leaves it unchanged), so
/// callers can memoize derived decisions keyed on it; see
/// ConsistencyProtocol::CachedWouldGrant.
class NetworkState {
 public:
  /// Creates a state with every site and repeater up.
  explicit NetworkState(std::shared_ptr<const Topology> topology);

  const Topology& topology() const { return *topology_; }

  /// --- mutation -----------------------------------------------------
  void SetSiteUp(SiteId site, bool up);
  void SetRepeaterUp(RepeaterId repeater, bool up);
  /// Resets every site and repeater to up.
  void AllUp();

  /// --- observation ---------------------------------------------------
  bool IsSiteUp(SiteId site) const { return live_sites_.Contains(site); }
  bool IsRepeaterUp(RepeaterId repeater) const {
    return repeater_up_[repeater];
  }

  /// Set of all live sites. Maintained incrementally; O(1).
  SiteSet LiveSites() const { return live_sites_; }

  /// Monotonic counter of effective state changes. Two observations with
  /// equal generation() saw identical up/down state (and therefore
  /// identical connectivity).
  std::uint64_t generation() const { return generation_; }

  /// True iff `a` and `b` are both up and can exchange messages.
  bool CanCommunicate(SiteId a, SiteId b) const;

  /// The set of live sites reachable from `site` (including `site`), or
  /// the empty set if `site` is down.
  SiteSet ComponentOf(SiteId site) const;

  /// All maximal groups of mutually communicating live sites. Every live
  /// site appears in exactly one group; down sites appear in none. The
  /// returned reference points at the internal cache and is invalidated
  /// by the next mutation.
  const std::vector<SiteSet>& Components() const;

  /// True iff all members of `sites` are live and mutually communicating.
  bool FullyConnected(SiteSet sites) const;

  /// Attaches an observability context; every *effective* site/repeater
  /// flip emits a kNet trace event carrying the new component partition.
  /// Not owned; null (the default) disables emission.
  void set_obs(ObsContext* obs) { obs_ = obs; }

 private:
  /// Emits the kNet event for an effective flip of `id` (site, or
  /// repeater when `repeater`). Forces Refresh() — pure and idempotent —
  /// so the event carries the post-flip components.
  void EmitFlip(int id, bool repeater, bool up) const;
  /// Rebuilds the segment-level union-find and the component list if
  /// they are stale.
  void Refresh() const;
  /// Moves `site`, which hosts no gateway, into or out of its
  /// component's mask on clean caches; marks the caches stale when it
  /// cannot (see the class comment).
  void UpdateComponentOf(SiteId site, bool up);
  int FindRoot(int segment) const;

  std::shared_ptr<const Topology> topology_;
  SiteSet gateways_;  // sites hosting a gateway bridge
  SiteSet live_sites_;
  std::vector<bool> repeater_up_;
  std::uint64_t generation_ = 0;
  ObsContext* obs_ = nullptr;

  // Lazily maintained caches, rebuilt together by Refresh() (a
  // non-gateway flip updates components_ alone in place):
  //  - union-find over segments (path-halving, flattened after build),
  //  - the component list (one live-site mask per connected component,
  //    ordered by root segment id),
  //  - root segment id -> index into components_ (-1 if no live sites).
  mutable std::vector<int> segment_root_;
  mutable std::vector<SiteSet> components_;
  mutable std::vector<SiteSet> root_live_;  // scratch, indexed by root
  mutable std::vector<int> component_of_root_;
  mutable bool dirty_ = true;
};

}  // namespace dynvote
