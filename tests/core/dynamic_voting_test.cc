#include "core/dynamic_voting.h"

#include <gtest/gtest.h>

#include "core/test_topologies.h"
#include "net/network_state.h"

namespace dynvote {
namespace {

using testing_util::Section3Network;
using testing_util::SingleSegment;

TEST(DynamicVotingMakeTest, ValidatesArguments) {
  auto topo = SingleSegment(3);
  EXPECT_TRUE(DynamicVoting::Make(nullptr, SiteSet{0, 1})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(DynamicVoting::Make(topo, SiteSet())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(DynamicVoting::Make(topo, SiteSet{0, 7})
                  .status()
                  .IsInvalidArgument());
  DynamicVotingOptions bad_witness;
  bad_witness.witnesses = SiteSet{2};
  EXPECT_TRUE(DynamicVoting::Make(topo, SiteSet{0, 1}, bad_witness)
                  .status()
                  .IsInvalidArgument());
  DynamicVotingOptions all_witness;
  all_witness.witnesses = SiteSet{0, 1};
  EXPECT_TRUE(DynamicVoting::Make(topo, SiteSet{0, 1}, all_witness)
                  .status()
                  .IsInvalidArgument());
}

TEST(DynamicVotingMakeTest, RejectsWeightTableShorterThanPlacement) {
  // A two-entry table over a three-site placement used to give site 2 a
  // silent default weight of 1, miscounting weighted quorums; it is now
  // rejected at construction. Explicit padding remains available.
  auto topo = SingleSegment(3);
  DynamicVotingOptions short_table;
  short_table.weights = *VoteWeights::Make({3, 1});
  EXPECT_TRUE(DynamicVoting::Make(topo, SiteSet{0, 1, 2}, short_table)
                  .status()
                  .IsInvalidArgument());
  DynamicVotingOptions padded;
  padded.weights = *VoteWeights::MakePadded({3, 1}, 3);
  EXPECT_TRUE(DynamicVoting::Make(topo, SiteSet{0, 1, 2}, padded).ok());
}

TEST(DynamicVotingMakeTest, DerivedNames) {
  auto topo = SingleSegment(4);
  SiteSet p{0, 1, 2};
  EXPECT_EQ((*MakeDV(topo, p))->name(), "DV");
  EXPECT_EQ((*MakeLDV(topo, p))->name(), "LDV");
  EXPECT_EQ((*MakeODV(topo, p))->name(), "ODV");
  EXPECT_EQ((*MakeTDV(topo, p))->name(), "TDV");
  EXPECT_EQ((*MakeOTDV(topo, p))->name(), "OTDV");
}

TEST(DynamicVotingTest, InstantaneousFlagMatchesVariant) {
  auto topo = SingleSegment(3);
  SiteSet p{0, 1, 2};
  EXPECT_TRUE((*MakeLDV(topo, p))->uses_instantaneous_information());
  EXPECT_TRUE((*MakeTDV(topo, p))->uses_instantaneous_information());
  EXPECT_FALSE((*MakeODV(topo, p))->uses_instantaneous_information());
  EXPECT_FALSE((*MakeOTDV(topo, p))->uses_instantaneous_information());
}

TEST(DynamicVotingTest, AccessFromDownSiteIsUnavailable) {
  auto topo = SingleSegment(3);
  auto dv = *MakeLDV(topo, SiteSet{0, 1, 2});
  NetworkState net(topo);
  net.SetSiteUp(0, false);
  EXPECT_TRUE(dv->Read(net, 0).IsUnavailable());
  EXPECT_FALSE(dv->WouldGrant(net, 0, AccessType::kRead));
}

TEST(DynamicVotingTest, RecoverValidatesSite) {
  auto topo = SingleSegment(4);
  auto dv = *MakeLDV(topo, SiteSet{0, 1, 2});
  NetworkState net(topo);
  EXPECT_TRUE(dv->Recover(net, 3).IsInvalidArgument());  // no copy there
  net.SetSiteUp(1, false);
  EXPECT_TRUE(dv->Recover(net, 1).IsUnavailable());  // still down
}

TEST(DynamicVotingTest, InstantaneousShrinksOnFailureEvent) {
  auto topo = SingleSegment(3);
  auto ldv = *MakeLDV(topo, SiteSet{0, 1, 2});
  NetworkState net(topo);
  net.SetSiteUp(2, false);
  ldv->OnNetworkEvent(net);
  EXPECT_EQ(ldv->store().state(0).partition_set, (SiteSet{0, 1}));
  EXPECT_EQ(ldv->store().state(1).partition_set, (SiteSet{0, 1}));
  // The down copy keeps its stale ensemble.
  EXPECT_EQ(ldv->store().state(2).partition_set, (SiteSet{0, 1, 2}));
}

TEST(DynamicVotingTest, InstantaneousReintegratesOnRepairEvent) {
  auto topo = SingleSegment(3);
  auto ldv = *MakeLDV(topo, SiteSet{0, 1, 2});
  NetworkState net(topo);
  net.SetSiteUp(2, false);
  ldv->OnNetworkEvent(net);
  ASSERT_TRUE(ldv->Write(net, 0).ok());  // site 2 misses a write
  net.SetSiteUp(2, true);
  ldv->OnNetworkEvent(net);
  EXPECT_EQ(ldv->store().state(2).partition_set, (SiteSet{0, 1, 2}));
  EXPECT_EQ(ldv->store().state(2).version, ldv->store().state(0).version);
}

TEST(DynamicVotingTest, OptimisticIgnoresNetworkEvents) {
  auto topo = SingleSegment(3);
  auto odv = *MakeODV(topo, SiteSet{0, 1, 2});
  NetworkState net(topo);
  net.SetSiteUp(2, false);
  odv->OnNetworkEvent(net);
  // No state change: information is exchanged only at access time.
  EXPECT_EQ(odv->store().state(0).partition_set, (SiteSet{0, 1, 2}));
  EXPECT_EQ(odv->store().state(0).op_number, 1);
}

TEST(DynamicVotingTest, OptimisticUpdatesAtAccess) {
  auto topo = SingleSegment(3);
  auto odv = *MakeODV(topo, SiteSet{0, 1, 2});
  NetworkState net(topo);
  net.SetSiteUp(2, false);
  ASSERT_TRUE(odv->UserAccess(net, AccessType::kWrite).ok());
  EXPECT_EQ(odv->store().state(0).partition_set, (SiteSet{0, 1}));
}

TEST(DynamicVotingTest, UserAccessReintegratesStaleCopies) {
  auto topo = SingleSegment(3);
  auto odv = *MakeODV(topo, SiteSet{0, 1, 2});
  NetworkState net(topo);
  net.SetSiteUp(2, false);
  ASSERT_TRUE(odv->UserAccess(net, AccessType::kWrite).ok());
  net.SetSiteUp(2, true);
  // Site 2 is stale and excluded until the next access touches it.
  EXPECT_EQ(odv->store().state(2).op_number, 1);
  ASSERT_TRUE(odv->UserAccess(net, AccessType::kRead).ok());
  EXPECT_EQ(odv->store().state(2).partition_set, (SiteSet{0, 1, 2}));
  EXPECT_EQ(odv->store().state(2).version, odv->store().state(0).version);
}

TEST(DynamicVotingTest, UserAccessFailsWithNoQuorumAnywhere) {
  auto topo = SingleSegment(3);
  auto ldv = *MakeLDV(topo, SiteSet{0, 1, 2});
  NetworkState net(topo);
  net.SetSiteUp(0, false);
  net.SetSiteUp(1, false);
  ldv->OnNetworkEvent(net);
  EXPECT_TRUE(ldv->UserAccess(net, AccessType::kRead).IsNoQuorum());
}

TEST(DynamicVotingTest, DvTieBlocksBothSides) {
  // Plain DV on four copies split 2-2 by a repeater failure: neither side
  // may proceed (the weakness lexicographic voting fixes).
  auto topo = testing_util::TwoPairSegments();
  auto dv = *MakeDV(topo, SiteSet{0, 1, 2, 3});
  NetworkState net(topo);
  net.SetRepeaterUp(0, false);
  dv->OnNetworkEvent(net);
  EXPECT_FALSE(dv->WouldGrant(net, 0, AccessType::kWrite));
  EXPECT_FALSE(dv->WouldGrant(net, 2, AccessType::kWrite));
  EXPECT_FALSE(dv->IsAvailable(net));
  // LDV in the same situation grants the side holding the max element.
  auto ldv = *MakeLDV(topo, SiteSet{0, 1, 2, 3});
  ldv->OnNetworkEvent(net);
  EXPECT_TRUE(ldv->WouldGrant(net, 0, AccessType::kWrite));
  EXPECT_FALSE(ldv->WouldGrant(net, 2, AccessType::kWrite));
  EXPECT_TRUE(ldv->IsAvailable(net));
}

TEST(DynamicVotingTest, DvTieResolvesWhenNetworkHeals) {
  auto topo = testing_util::TwoPairSegments();
  auto dv = *MakeDV(topo, SiteSet{0, 1, 2, 3});
  NetworkState net(topo);
  net.SetRepeaterUp(0, false);
  dv->OnNetworkEvent(net);
  EXPECT_FALSE(dv->IsAvailable(net));
  net.SetRepeaterUp(0, true);
  dv->OnNetworkEvent(net);
  EXPECT_TRUE(dv->IsAvailable(net));
  EXPECT_TRUE(dv->UserAccess(net, AccessType::kWrite).ok());
}

TEST(DynamicVotingTest, QuorumShrinksToOneAndRecovers) {
  // Cascade: 3 copies -> 2 -> 1, then repair in reverse order.
  auto topo = SingleSegment(3);
  auto ldv = *MakeLDV(topo, SiteSet{0, 1, 2});
  NetworkState net(topo);
  net.SetSiteUp(2, false);
  ldv->OnNetworkEvent(net);
  net.SetSiteUp(1, false);
  ldv->OnNetworkEvent(net);
  // P = {0, 1}, only 0 left: 1 = half with max element -> still available.
  EXPECT_TRUE(ldv->IsAvailable(net));
  EXPECT_EQ(ldv->store().state(0).partition_set, SiteSet{0});
  net.SetSiteUp(0, false);
  ldv->OnNetworkEvent(net);
  EXPECT_FALSE(ldv->IsAvailable(net));

  // Sites 1 and 2 restart, but the majority block is {0}: the file must
  // stay unavailable until site 0 returns.
  net.SetSiteUp(1, true);
  net.SetSiteUp(2, true);
  ldv->OnNetworkEvent(net);
  EXPECT_FALSE(ldv->IsAvailable(net));
  net.SetSiteUp(0, true);
  ldv->OnNetworkEvent(net);
  EXPECT_TRUE(ldv->IsAvailable(net));
  EXPECT_EQ(ldv->store().state(2).partition_set, (SiteSet{0, 1, 2}));
}

TEST(DynamicVotingTest, LastSiteStandingMustBeTheRightOne) {
  // After P shrinks to {1} (site 0 down first), a restart of site 0 alone
  // must NOT grant: its state is stale.
  auto topo = SingleSegment(2);
  auto ldv = *MakeLDV(topo, SiteSet{0, 1});
  NetworkState net(topo);
  net.SetSiteUp(0, false);
  ldv->OnNetworkEvent(net);
  // Site 1 is half of {0, 1} without the max element: frozen. No write
  // can advance the lineage behind site 0's back.
  EXPECT_TRUE(ldv->Write(net, 1).IsNoQuorum());
  EXPECT_EQ(ldv->store().state(1).op_number, 1);
  net.SetSiteUp(1, false);
  ldv->OnNetworkEvent(net);
  net.SetSiteUp(0, true);
  ldv->OnNetworkEvent(net);
  // Site 0 reads its own P = {0, 1}: 1 = half with max (0) in Q. The
  // grant is safe precisely because site 1 could never have advanced
  // alone above.
  EXPECT_TRUE(ldv->WouldGrant(net, 0, AccessType::kWrite));
}

TEST(DynamicVotingTest, MessageAccounting) {
  auto topo = SingleSegment(3);
  auto ldv = *MakeLDV(topo, SiteSet{0, 1, 2});
  NetworkState net(topo);
  ASSERT_TRUE(ldv->Read(net, 0).ok());
  const MessageCounter& c = *ldv->counter();
  EXPECT_EQ(c.count(MessageKind::kProbe), 3u);
  EXPECT_EQ(c.count(MessageKind::kProbeReply), 3u);
  EXPECT_EQ(c.count(MessageKind::kStateRequest), 3u);
  EXPECT_EQ(c.count(MessageKind::kStateReply), 3u);
  EXPECT_EQ(c.count(MessageKind::kCommit), 3u);
  EXPECT_EQ(c.count(MessageKind::kAbort), 0u);
}

TEST(DynamicVotingTest, AbortCountedOnDenial) {
  auto topo = SingleSegment(3);
  auto odv = *MakeODV(topo, SiteSet{0, 1, 2});
  NetworkState net(topo);
  net.SetSiteUp(0, false);
  net.SetSiteUp(1, false);
  EXPECT_TRUE(odv->Read(net, 2).IsNoQuorum());
  EXPECT_GT(odv->counter()->count(MessageKind::kAbort), 0u);
}

TEST(DynamicVotingTest, ResetRestoresInitialState) {
  auto topo = SingleSegment(3);
  auto ldv = *MakeLDV(topo, SiteSet{0, 1, 2});
  NetworkState net(topo);
  ASSERT_TRUE(ldv->Write(net, 0).ok());
  ldv->Reset();
  EXPECT_EQ(ldv->store().state(0).op_number, 1);
  EXPECT_EQ(ldv->store().state(0).version, 1);
  EXPECT_EQ(ldv->store().state(0).partition_set, (SiteSet{0, 1, 2}));
}

TEST(DynamicVotingTest, WeightedDynamicVoting) {
  // Weight 3 on site 0: it alone holds a strict majority of the initial
  // block, so it can keep operating with both other copies down.
  auto topo = SingleSegment(3);
  DynamicVotingOptions options;
  options.weights = *VoteWeights::Make({3, 1, 1});
  auto wdv = *DynamicVoting::Make(topo, SiteSet{0, 1, 2}, options);
  EXPECT_EQ(wdv->name(), "WLDV");
  NetworkState net(topo);
  net.SetSiteUp(1, false);
  net.SetSiteUp(2, false);
  wdv->OnNetworkEvent(net);
  EXPECT_TRUE(wdv->WouldGrant(net, 0, AccessType::kWrite));
  // And conversely sites 1+2 (weight 2 of 5) cannot proceed without 0.
  net.AllUp();
  net.SetSiteUp(0, false);
  wdv->Reset();
  wdv->OnNetworkEvent(net);
  EXPECT_FALSE(wdv->IsAvailable(net));
}

TEST(DynamicVotingTest, DenialStatusTextIsPinned) {
  // DV on the Section 3 network: B fails, then both repeaters, leaving
  // A and D tied over the block {A, D}; B restarts next to A holding a
  // stale operation number. DV lets ties fail, so a write at B is
  // denied, and the status spells out every set of the decision.
  auto topo = Section3Network();
  auto dv = *MakeDV(topo, SiteSet{0, 1, 2, 3});
  NetworkState net(topo);
  net.SetSiteUp(1, false);
  dv->OnNetworkEvent(net);
  net.SetRepeaterUp(0, false);
  dv->OnNetworkEvent(net);
  net.SetRepeaterUp(1, false);
  dv->OnNetworkEvent(net);
  net.SetSiteUp(1, true);
  dv->OnNetworkEvent(net);
  Status st = dv->Write(net, 1);
  ASSERT_TRUE(st.IsNoQuorum());
  EXPECT_EQ(st.message(), "DV: DENIED R={0, 1} Q={0} S={0, 1} counted={0} Pm={0, 3}");
}

}  // namespace
}  // namespace dynvote
