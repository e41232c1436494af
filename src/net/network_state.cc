#include "net/network_state.h"

#include <numeric>

#include "util/logging.h"

namespace dynvote {

NetworkState::NetworkState(std::shared_ptr<const Topology> topology)
    : topology_(std::move(topology)) {
  DYNVOTE_CHECK_MSG(topology_ != nullptr, "NetworkState needs a topology");
  for (const BridgeInfo& b : topology_->bridges()) {
    if (b.gateway_site.has_value()) gateways_.Add(*b.gateway_site);
  }
  live_sites_ = topology_->AllSites();
  repeater_up_.assign(topology_->num_repeaters(), true);
  segment_root_.assign(topology_->num_segments(), 0);
  root_live_.assign(topology_->num_segments(), SiteSet());
  component_of_root_.assign(topology_->num_segments(), -1);
  components_.reserve(topology_->num_segments());
}

void NetworkState::SetSiteUp(SiteId site, bool up) {
  DYNVOTE_CHECK(site >= 0 && site < topology_->num_sites());
  if (live_sites_.Contains(site) == up) return;
  if (up) {
    live_sites_.Add(site);
  } else {
    live_sites_.Remove(site);
  }
  ++generation_;
  if (gateways_.Contains(site)) {
    dirty_ = true;
  } else {
    UpdateComponentOf(site, up);
  }
  if (obs_ != nullptr) EmitFlip(site, /*repeater=*/false, up);
}

void NetworkState::UpdateComponentOf(SiteId site, bool up) {
  if (dirty_) return;
  // The site carries no bridge, so the union-find stands; only its
  // component's live set changes.
  const int root = segment_root_[topology_->SegmentOf(site)];
  const int idx = component_of_root_[root];
  if (idx >= 0) {
    SiteSet group = components_[static_cast<std::size_t>(idx)];
    if (up) {
      group.Add(site);
    } else {
      group.Remove(site);
    }
    if (!group.Empty()) {
      components_[static_cast<std::size_t>(idx)] = group;
      return;
    }
  }
  // The component appears or vanishes: the list changes shape.
  dirty_ = true;
}

void NetworkState::SetRepeaterUp(RepeaterId repeater, bool up) {
  DYNVOTE_CHECK(repeater >= 0 && repeater < topology_->num_repeaters());
  if (repeater_up_[repeater] == up) return;
  repeater_up_[repeater] = up;
  ++generation_;
  dirty_ = true;
  if (obs_ != nullptr) EmitFlip(repeater, /*repeater=*/true, up);
}

void NetworkState::EmitFlip(int id, bool repeater, bool up) const {
  if (obs_->sink != nullptr) {
    Refresh();
    TraceEvent event;
    event.type = TraceEventType::kNet;
    event.t = obs_->now;
    event.replication = obs_->replication;
    event.seq = obs_->seq;
    event.site = id;
    event.repeater = repeater;
    event.up = up;
    event.generation = generation_;
    event.components.reserve(components_.size());
    for (const SiteSet& group : components_) {
      event.components.push_back(group.mask());
    }
    obs_->sink->Write(event);
  }
  if (obs_->metrics != nullptr) {
    obs_->metrics->Add(repeater ? (up ? "net_repeater_up" : "net_repeater_down")
                                : (up ? "net_site_up" : "net_site_down"));
  }
}

void NetworkState::AllUp() {
  bool repeaters_all_up = true;
  for (bool up : repeater_up_) repeaters_all_up &= up;
  if (live_sites_ == topology_->AllSites() && repeaters_all_up) return;
  live_sites_ = topology_->AllSites();
  repeater_up_.assign(topology_->num_repeaters(), true);
  ++generation_;
  dirty_ = true;
}

void NetworkState::Refresh() const {
  if (!dirty_) return;
  const int num_segments = topology_->num_segments();
  std::iota(segment_root_.begin(), segment_root_.end(), 0);
  for (const BridgeInfo& b : topology_->bridges()) {
    bool bridge_up = b.gateway_site.has_value()
                         ? live_sites_.Contains(*b.gateway_site)
                         : repeater_up_[b.repeater];
    if (!bridge_up) continue;
    int ra = FindRoot(b.segment_a);
    int rb = FindRoot(b.segment_b);
    if (ra != rb) segment_root_[rb] = ra;
  }
  // Flatten so later FindRoot calls are O(1), and gather each root's live
  // sites from the per-segment masks (one union per segment, no per-site
  // loop).
  for (int seg = 0; seg < num_segments; ++seg) {
    int root = FindRoot(seg);
    segment_root_[seg] = root;
    root_live_[seg] = SiteSet();
  }
  for (int seg = 0; seg < num_segments; ++seg) {
    SiteSet live_here = topology_->SitesOnSegment(seg).Intersect(live_sites_);
    if (!live_here.Empty()) {
      int root = segment_root_[seg];
      root_live_[root] = root_live_[root].Union(live_here);
    }
  }
  // Component list in ascending root order (the historical Components()
  // ordering, which golden traces depend on).
  components_.clear();
  for (int root = 0; root < num_segments; ++root) {
    if (root_live_[root].Empty()) {
      component_of_root_[root] = -1;
    } else {
      component_of_root_[root] = static_cast<int>(components_.size());
      components_.push_back(root_live_[root]);
    }
  }
  dirty_ = false;
}

int NetworkState::FindRoot(int segment) const {
  int root = segment;
  while (segment_root_[root] != root) root = segment_root_[root];
  // Path compression.
  while (segment_root_[segment] != root) {
    int next = segment_root_[segment];
    segment_root_[segment] = root;
    segment = next;
  }
  return root;
}

bool NetworkState::CanCommunicate(SiteId a, SiteId b) const {
  // Too hot for a Release check: both queries sit on the per-event
  // sampling path (see bench/hotpath_micro.cc).
  DYNVOTE_DCHECK(a >= 0 && a < topology_->num_sites());
  DYNVOTE_DCHECK(b >= 0 && b < topology_->num_sites());
  if (!live_sites_.Contains(a) || !live_sites_.Contains(b)) return false;
  Refresh();
  return segment_root_[topology_->SegmentOf(a)] ==
         segment_root_[topology_->SegmentOf(b)];
}

SiteSet NetworkState::ComponentOf(SiteId site) const {
  DYNVOTE_DCHECK(site >= 0 && site < topology_->num_sites());
  if (!live_sites_.Contains(site)) return SiteSet();
  Refresh();
  int idx = component_of_root_[segment_root_[topology_->SegmentOf(site)]];
  return idx < 0 ? SiteSet() : components_[idx];
}

const std::vector<SiteSet>& NetworkState::Components() const {
  Refresh();
  return components_;
}

bool NetworkState::FullyConnected(SiteSet sites) const {
  if (sites.Empty()) return true;
  SiteId first = sites.RankMax();
  if (!live_sites_.Contains(first)) return false;
  return sites.IsSubsetOf(ComponentOf(first));
}

}  // namespace dynvote
