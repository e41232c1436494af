// Behaviour of Topological Dynamic Voting (Section 3): vote-carrying
// within a segment, degeneration into Available Copy on one segment, and
// the Section 3 worked example.

#include <gtest/gtest.h>

#include "core/dynamic_voting.h"
#include "core/test_topologies.h"
#include "net/network_state.h"
#include "obs/context.h"
#include "obs/test_trace_capture.h"

namespace dynvote {
namespace {

using testing_util::Section3Network;
using testing_util::SingleSegment;

TEST(TopologicalTest, Section3MotivatingExample) {
  // "Assume now that the file is in the state ... where the majority
  // block consists of sites A and B. Assume now that site A fails. Under
  // Lexicographic Dynamic Voting, site B cannot become the majority
  // partition ... The situation is different here: ... B knows that A
  // must be unavailable and can safely become the majority block."
  auto topo = Section3Network();
  const SiteId a = 0, b = 1, c = 2, d = 3;

  auto tdv = *MakeTDV(topo, SiteSet{a, b, c, d});
  auto ldv = *MakeLDV(topo, SiteSet{a, b, c, d});
  NetworkState net(topo);

  // Drive both into the paper's state: majority block {A, B} after C and
  // D dropped out (fail C, then D, with writes in between).
  for (auto* p : {tdv.get(), ldv.get()}) {
    net.AllUp();
    p->OnNetworkEvent(net);
    net.SetSiteUp(d, false);
    p->OnNetworkEvent(net);
    net.SetSiteUp(c, false);
    p->OnNetworkEvent(net);
    ASSERT_TRUE(p->Write(net, a).ok());
    net.AllUp();
    net.SetSiteUp(c, false);
    net.SetSiteUp(d, false);
  }
  EXPECT_EQ(tdv->store().state(a).partition_set, (SiteSet{a, b}));

  // Site A fails. LDV: B is half of {A, B} without the max element —
  // file unavailable. TDV: B carries A's vote (same segment) — available.
  net.SetSiteUp(a, false);
  ldv->OnNetworkEvent(net);
  tdv->OnNetworkEvent(net);
  EXPECT_FALSE(ldv->WouldGrant(net, b, AccessType::kWrite));
  EXPECT_TRUE(tdv->WouldGrant(net, b, AccessType::kWrite));
  EXPECT_TRUE(tdv->Write(net, b).ok());
}

TEST(TopologicalTest, CannotCarryVotesAcrossSegments) {
  auto topo = Section3Network();
  const SiteId a = 0, b = 1, c = 2, d = 3;
  auto tdv = *MakeTDV(topo, SiteSet{a, b, c, d});
  NetworkState net(topo);

  // A and B fail: C and D together hold 2 of 4 votes without the max
  // element, and neither is on A/B's segment, so no carrying.
  net.SetSiteUp(a, false);
  net.SetSiteUp(b, false);
  tdv->OnNetworkEvent(net);
  EXPECT_FALSE(tdv->IsAvailable(net));
}

TEST(TopologicalTest, DegeneratesIntoAvailableCopyOnOneSegment) {
  // "When all the sites are on the same segment, the modified topological
  // algorithm degenerates into an available copy protocol as a quorum is
  // guaranteed as long as one copy remains available."
  auto topo = SingleSegment(4);
  auto tdv = *MakeTDV(topo, SiteSet{0, 1, 2, 3});
  NetworkState net(topo);
  // Kill three of four in sequence; the last copy still has a quorum.
  for (SiteId s : {0, 1, 2}) {
    net.SetSiteUp(s, false);
    tdv->OnNetworkEvent(net);
    EXPECT_TRUE(tdv->IsAvailable(net)) << "after killing " << s;
  }
  EXPECT_TRUE(tdv->Write(net, 3).ok());
  EXPECT_EQ(tdv->store().state(3).partition_set, SiteSet{3});
}

TEST(TopologicalTest, PartitionAloneCannotForkTdv) {
  // Pure partitions (no site failures): at most one group can be granted.
  // The carried votes of *down* sites are the only extension, and a
  // partition leaves every site up, so TDV behaves exactly like LDV.
  auto topo = testing_util::TwoPairSegments();
  auto tdv = *MakeTDV(topo, SiteSet{0, 1, 2, 3});
  NetworkState net(topo);
  net.SetRepeaterUp(0, false);
  tdv->OnNetworkEvent(net);
  int granted = 0;
  for (const SiteSet& group : net.Components()) {
    if (tdv->WouldGrant(net, group.RankMax(), AccessType::kWrite)) {
      ++granted;
    }
  }
  EXPECT_EQ(granted, 1);  // the side with the max element
  EXPECT_TRUE(tdv->WouldGrant(net, 0, AccessType::kWrite));
}

TEST(TopologicalTest, OtdvIsOptimistic) {
  // OTDV only exchanges state at access time but still counts carried
  // votes.
  auto topo = SingleSegment(3);
  auto otdv = *MakeOTDV(topo, SiteSet{0, 1, 2});
  NetworkState net(topo);
  net.SetSiteUp(0, false);
  net.SetSiteUp(1, false);
  otdv->OnNetworkEvent(net);
  EXPECT_EQ(otdv->store().state(2).partition_set, (SiteSet{0, 1, 2}));
  // Down sites 0 and 1 are carried by live segment-mate 2.
  EXPECT_TRUE(otdv->WouldGrant(net, 2, AccessType::kWrite));
  ASSERT_TRUE(otdv->UserAccess(net, AccessType::kWrite).ok());
  EXPECT_EQ(otdv->store().state(2).partition_set, SiteSet{2});
}

TEST(TopologicalTest, CarryDecisiveGrantIsAttributedInTraces) {
  // Re-run the Section 3 motivating example with tracing attached: the
  // final TDV grant exists *only* because B carries A's segment votes, so
  // its quorum event must say granted_topological_carry — while ODV,
  // driven through the identical failure history, never carries and must
  // emit no carry reason at all.
  auto topo = Section3Network();
  const SiteId a = 0, b = 1, c = 2, d = 3;
  auto tdv = *MakeTDV(topo, SiteSet{a, b, c, d});
  auto odv = *MakeODV(topo, SiteSet{a, b, c, d});
  NetworkState net(topo);

  testing_util::TraceCapture capture;
  MetricsShard metrics;
  ObsContext obs;
  obs.sink = capture.sink();
  obs.metrics = &metrics;
  tdv->set_obs(&obs);
  odv->set_obs(&obs);

  for (auto* p : {tdv.get(), odv.get()}) {
    net.AllUp();
    p->OnNetworkEvent(net);
    net.SetSiteUp(d, false);
    p->OnNetworkEvent(net);
    net.SetSiteUp(c, false);
    p->OnNetworkEvent(net);
    ASSERT_TRUE(p->Write(net, a).ok());
    net.AllUp();
    net.SetSiteUp(c, false);
    net.SetSiteUp(d, false);
  }
  net.SetSiteUp(a, false);
  tdv->OnNetworkEvent(net);
  odv->OnNetworkEvent(net);
  EXPECT_TRUE(tdv->WouldGrant(net, b, AccessType::kWrite));
  EXPECT_FALSE(odv->WouldGrant(net, b, AccessType::kWrite));

  int tdv_carries = 0;
  int odv_carries = 0;
  for (const TraceEvent& event : capture.Events()) {
    if (event.type != TraceEventType::kQuorum) continue;
    if (event.reason != QuorumReason::kGrantedTopologicalCarry) continue;
    if (event.protocol == "TDV") ++tdv_carries;
    if (event.protocol == "ODV") ++odv_carries;
  }
  EXPECT_GE(tdv_carries, 1);
  EXPECT_EQ(odv_carries, 0);
  // The same attribution lands in the metrics shard, under the key the
  // trace-summary and CI smoke checks read.
  EXPECT_GE(metrics.counters().at(
                "quorum_evaluations{protocol=TDV,"
                "reason=granted_topological_carry}"),
            1u);
  EXPECT_EQ(metrics.counters().count(
                "quorum_evaluations{protocol=ODV,"
                "reason=granted_topological_carry}"),
            0u);
}

TEST(TopologicalTest, GatewayHostBelongsToOneSegmentOnly) {
  // A gateway host's votes can only be carried by its home segment: the
  // paper's rule for avoiding rival claims from both sides.
  auto builder = Topology::Builder();
  SegmentId main = builder.AddSegment("main");
  SegmentId second = builder.AddSegment("second");
  SiteId m0 = builder.AddSite("m0", main);
  SiteId gw = builder.AddSite("gw", main);  // home segment: main
  SiteId s0 = builder.AddSite("s0", second);
  builder.AddGateway(gw, second);
  auto topo_result = builder.Build();
  ASSERT_TRUE(topo_result.ok());
  auto topo = topo_result.MoveValue();

  auto tdv = *MakeTDV(topo, SiteSet{m0, gw, s0});
  NetworkState net(topo);
  // Gateway fails: s0 is partitioned away. s0 must NOT claim the
  // gateway's vote ({gw, s0} would be a majority of 3): the gateway
  // belongs to "main".
  net.SetSiteUp(gw, false);
  tdv->OnNetworkEvent(net);
  EXPECT_FALSE(tdv->WouldGrant(net, s0, AccessType::kWrite));
  // m0 does carry it: {m0, gw} is 2 of 3.
  EXPECT_TRUE(tdv->WouldGrant(net, m0, AccessType::kWrite));
}

}  // namespace
}  // namespace dynvote
