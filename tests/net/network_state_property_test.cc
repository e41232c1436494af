// Property test for NetworkState's incrementally maintained state: after
// any randomized sequence of SetSiteUp / SetRepeaterUp / AllUp mutations,
// the cached Components() / LiveSites() / ComponentOf() answers must be
// identical to those of a freshly constructed NetworkState that replays
// only the *final* up/down state. Also pins down the generation()
// contract: no bump on no-op mutations, exactly one bump per effective
// flip.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "model/site_profile.h"
#include "net/network_state.h"
#include "util/rng.h"
#include "test_text.h"

namespace dynvote {
namespace {

std::shared_ptr<const Topology> MakeRandomTopology(Rng* rng) {
  auto builder = Topology::Builder();
  int num_segments = 1 + static_cast<int>(rng->NextBounded(5));
  std::vector<SegmentId> segments;
  for (int i = 0; i < num_segments; ++i) {
    segments.push_back(
        builder.AddSegment(testing_util::Cat({"seg", std::to_string(i)})));
  }
  int num_sites = 2 + static_cast<int>(rng->NextBounded(9));
  std::vector<SiteId> sites;
  std::vector<SegmentId> home;
  for (int i = 0; i < num_sites; ++i) {
    SegmentId seg = segments[rng->NextBounded(segments.size())];
    sites.push_back(
        builder.AddSite(testing_util::Cat({"s", std::to_string(i)}), seg));
    home.push_back(seg);
  }
  int num_bridges = static_cast<int>(rng->NextBounded(6));
  for (int i = 0; i < num_bridges && num_segments > 1; ++i) {
    SegmentId a = segments[rng->NextBounded(segments.size())];
    SegmentId b = segments[rng->NextBounded(segments.size())];
    if (a == b) continue;
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
  return topo.MoveValue();
}

/// A fresh NetworkState that replays only `net`'s final up/down state.
NetworkState ReplayFinalState(const std::shared_ptr<const Topology>& topology,
                              const NetworkState& net) {
  NetworkState fresh(topology);
  const Topology& topo = *topology;
  for (SiteId s = 0; s < topo.num_sites(); ++s) {
    fresh.SetSiteUp(s, net.IsSiteUp(s));
  }
  for (RepeaterId r = 0; r < topo.num_repeaters(); ++r) {
    fresh.SetRepeaterUp(r, net.IsRepeaterUp(r));
  }
  return fresh;
}

void ExpectSameConnectivity(const NetworkState& incremental,
                            const NetworkState& fresh, int trial, int step) {
  ASSERT_EQ(incremental.LiveSites(), fresh.LiveSites())
      << "trial " << trial << " step " << step;
  ASSERT_EQ(incremental.Components(), fresh.Components())
      << "trial " << trial << " step " << step;
  const int n = incremental.topology().num_sites();
  for (SiteId s = 0; s < n; ++s) {
    ASSERT_EQ(incremental.ComponentOf(s), fresh.ComponentOf(s))
        << "trial " << trial << " step " << step << " site " << s;
  }
}

TEST(NetworkStatePropertyTest, IncrementalStateMatchesFreshReplay) {
  Rng rng(0x17C);
  for (int trial = 0; trial < 40; ++trial) {
    auto topology = MakeRandomTopology(&rng);
    NetworkState net(topology);
    const int n = topology->num_sites();
    for (int step = 0; step < 120; ++step) {
      double coin = rng.NextDouble();
      if (coin < 0.05) {
        net.AllUp();
      } else if (coin < 0.3 && topology->num_repeaters() > 0) {
        RepeaterId r = static_cast<RepeaterId>(
            rng.NextBounded(topology->num_repeaters()));
        net.SetRepeaterUp(r, rng.NextBernoulli(0.6));
      } else {
        SiteId s = static_cast<SiteId>(rng.NextBounded(n));
        net.SetSiteUp(s, rng.NextBernoulli(0.7));
      }
      // Interleave queries so later checks exercise the *cached* answers,
      // not a freshly rebuilt state.
      if (rng.NextBernoulli(0.5)) {
        (void)net.Components();
        (void)net.ComponentOf(static_cast<SiteId>(rng.NextBounded(n)));
      }
      NetworkState fresh = ReplayFinalState(topology, net);
      ExpectSameConnectivity(net, fresh, trial, step);
    }
  }
}

TEST(NetworkStatePropertyTest, PaperNetworkFlipsQueriedEveryStepMatchReplay) {
  // The simulation's regime: every flip is followed by a query, so each
  // flip of a non-gateway site finds clean caches and updates its
  // component in place, while flips of the gateways (ids 3 and 4, paper
  // sites 4 and 5) and flips that empty or fill a component rebuild.
  // Both must leave exactly what a fresh replay of the final state gives.
  auto paper = MakePaperNetwork();
  ASSERT_TRUE(paper.ok());
  const std::shared_ptr<const Topology>& topology = paper->topology;
  const int n = topology->num_sites();
  Rng rng(0x9A9E);
  int in_place_flips = 0;  // non-gateway flips that keep the group count
  for (int trial = 0; trial < 20; ++trial) {
    NetworkState net(topology);
    for (int step = 0; step < 200; ++step) {
      if (rng.NextBernoulli(0.02)) {
        net.AllUp();
      } else {
        const SiteId s = static_cast<SiteId>(rng.NextBounded(n));
        const bool gateway = s == 3 || s == 4;
        const std::size_t groups_before = net.Components().size();
        const bool up = rng.NextBernoulli(0.6);
        const bool flips = net.IsSiteUp(s) != up;
        net.SetSiteUp(s, up);
        if (flips && !gateway && net.Components().size() == groups_before) {
          ++in_place_flips;
        }
      }
      (void)net.Components();
      NetworkState fresh = ReplayFinalState(topology, net);
      ExpectSameConnectivity(net, fresh, trial, step);
    }
  }
  EXPECT_GT(in_place_flips, 500);
}

TEST(NetworkStatePropertyTest, GenerationBumpsOnlyOnEffectiveChanges) {
  Rng rng(0x6E4);
  for (int trial = 0; trial < 20; ++trial) {
    auto topology = MakeRandomTopology(&rng);
    NetworkState net(topology);
    const int n = topology->num_sites();
    for (int step = 0; step < 150; ++step) {
      std::uint64_t before = net.generation();
      bool effective = false;
      double coin = rng.NextDouble();
      if (coin < 0.1) {
        effective = net.LiveSites() != topology->AllSites();
        for (RepeaterId r = 0; r < topology->num_repeaters() && !effective;
             ++r) {
          effective = !net.IsRepeaterUp(r);
        }
        net.AllUp();
      } else if (coin < 0.3 && topology->num_repeaters() > 0) {
        RepeaterId r = static_cast<RepeaterId>(
            rng.NextBounded(topology->num_repeaters()));
        bool up = rng.NextBernoulli(0.5);
        effective = net.IsRepeaterUp(r) != up;
        net.SetRepeaterUp(r, up);
      } else {
        SiteId s = static_cast<SiteId>(rng.NextBounded(n));
        bool up = rng.NextBernoulli(0.5);
        effective = net.IsSiteUp(s) != up;
        net.SetSiteUp(s, up);
      }
      if (effective) {
        ASSERT_GT(net.generation(), before)
            << "trial " << trial << " step " << step;
      } else {
        ASSERT_EQ(net.generation(), before)
            << "trial " << trial << " step " << step;
      }
    }
  }
}

TEST(NetworkStatePropertyTest, EqualGenerationsImplyEqualState) {
  auto builder = Topology::Builder();
  SegmentId a = builder.AddSegment("a");
  SegmentId b = builder.AddSegment("b");
  SiteId s0 = builder.AddSite("s0", a);
  builder.AddSite("s1", b);
  builder.AddRepeater("r", a, b);
  auto topo = builder.Build();
  ASSERT_TRUE(topo.ok());
  NetworkState net(topo.MoveValue());

  std::uint64_t g0 = net.generation();
  net.SetSiteUp(s0, true);        // no-op: already up
  net.SetRepeaterUp(0, true);     // no-op: already up
  net.AllUp();                    // no-op: everything already up
  EXPECT_EQ(net.generation(), g0);

  net.SetSiteUp(s0, false);
  std::uint64_t g1 = net.generation();
  EXPECT_GT(g1, g0);
  net.SetSiteUp(s0, false);  // no-op: already down
  EXPECT_EQ(net.generation(), g1);

  net.AllUp();  // effective: s0 comes back up
  EXPECT_GT(net.generation(), g1);
}

}  // namespace
}  // namespace dynvote
