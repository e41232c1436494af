// Differential test of NetworkState's union-find connectivity against a
// brute-force breadth-first search over the bridge graph, on randomly
// generated topologies and random up/down states.

#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "net/network_state.h"
#include "util/rng.h"
#include "test_text.h"

namespace dynvote {
namespace {

struct RandomNetwork {
  std::shared_ptr<const Topology> topology;
};

RandomNetwork MakeRandomTopology(Rng* rng) {
  auto builder = Topology::Builder();
  int num_segments = 1 + static_cast<int>(rng->NextBounded(5));
  std::vector<SegmentId> segments;
  for (int i = 0; i < num_segments; ++i) {
    segments.push_back(
        builder.AddSegment(testing_util::Cat({"seg", std::to_string(i)})));
  }
  int num_sites = 2 + static_cast<int>(rng->NextBounded(9));
  std::vector<SiteId> sites;
  std::vector<SegmentId> home;  // home[i] = segment of site i
  for (int i = 0; i < num_sites; ++i) {
    SegmentId seg = segments[rng->NextBounded(segments.size())];
    sites.push_back(
        builder.AddSite(testing_util::Cat({"s", std::to_string(i)}), seg));
    home.push_back(seg);
  }
  // Random bridges: mix of repeaters and gateway hosts.
  int num_bridges = static_cast<int>(rng->NextBounded(6));
  for (int i = 0; i < num_bridges && num_segments > 1; ++i) {
    SegmentId a = segments[rng->NextBounded(segments.size())];
    SegmentId b = segments[rng->NextBounded(segments.size())];
    if (a == b) continue;
    // Pick a site homed on `a` as the gateway host if one exists and the
    // coin says so; otherwise use a standalone repeater.
    SiteId host = -1;
    if (rng->NextBernoulli(0.5)) {
      for (std::size_t s = 0; s < sites.size(); ++s) {
        if (home[s] == a) host = sites[s];
      }
    }
    if (host >= 0) {
      builder.AddGateway(host, b);
    } else {
      builder.AddRepeater(testing_util::Cat({"r", std::to_string(i)}), a, b);
    }
  }
  auto topo = builder.Build();
  EXPECT_TRUE(topo.ok());
  return RandomNetwork{topo.MoveValue()};
}

/// Reference: BFS over segments joined by live bridges.
bool ReferenceCanCommunicate(const NetworkState& net, SiteId a, SiteId b) {
  const Topology& topo = net.topology();
  if (!net.IsSiteUp(a) || !net.IsSiteUp(b)) return false;
  std::vector<std::vector<int>> adjacent(topo.num_segments());
  for (const BridgeInfo& bridge : topo.bridges()) {
    bool up = bridge.gateway_site.has_value()
                  ? net.IsSiteUp(*bridge.gateway_site)
                  : net.IsRepeaterUp(bridge.repeater);
    if (!up) continue;
    adjacent[bridge.segment_a].push_back(bridge.segment_b);
    adjacent[bridge.segment_b].push_back(bridge.segment_a);
  }
  std::vector<bool> seen(topo.num_segments(), false);
  std::queue<int> frontier;
  frontier.push(topo.SegmentOf(a));
  seen[topo.SegmentOf(a)] = true;
  while (!frontier.empty()) {
    int seg = frontier.front();
    frontier.pop();
    if (seg == topo.SegmentOf(b)) return true;
    for (int next : adjacent[seg]) {
      if (!seen[next]) {
        seen[next] = true;
        frontier.push(next);
      }
    }
  }
  return false;
}

TEST(ConnectivityFuzzTest, MatchesBfsReference) {
  Rng rng(0xBF5);
  for (int trial = 0; trial < 60; ++trial) {
    RandomNetwork rn = MakeRandomTopology(&rng);
    NetworkState net(rn.topology);
    const int n = rn.topology->num_sites();
    for (int step = 0; step < 200; ++step) {
      // Random mutation.
      if (rn.topology->num_repeaters() > 0 && rng.NextBernoulli(0.3)) {
        RepeaterId r = static_cast<RepeaterId>(
            rng.NextBounded(rn.topology->num_repeaters()));
        net.SetRepeaterUp(r, rng.NextBernoulli(0.6));
      } else {
        SiteId s = static_cast<SiteId>(rng.NextBounded(n));
        net.SetSiteUp(s, rng.NextBernoulli(0.7));
      }
      // Spot-check pairwise connectivity.
      for (int probe = 0; probe < 6; ++probe) {
        SiteId a = static_cast<SiteId>(rng.NextBounded(n));
        SiteId b = static_cast<SiteId>(rng.NextBounded(n));
        ASSERT_EQ(net.CanCommunicate(a, b),
                  ReferenceCanCommunicate(net, a, b))
            << "trial " << trial << " step " << step << " pair (" << a
            << ", " << b << ")";
      }
      // Components must agree with pairwise reachability.
      auto groups = net.Components();
      for (const SiteSet& group : groups) {
        SiteId representative = group.RankMax();
        for (SiteId member : group) {
          ASSERT_TRUE(ReferenceCanCommunicate(net, representative, member));
        }
      }
      // And every live site is in exactly one group.
      SiteSet covered;
      for (const SiteSet& group : groups) {
        ASSERT_FALSE(covered.Intersects(group));
        covered = covered.Union(group);
      }
      ASSERT_EQ(covered, net.LiveSites());
    }
  }
}

}  // namespace
}  // namespace dynvote
