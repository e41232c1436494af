// Golden-sequence test: the Section 2.1 walkthrough produces a known,
// exact sequence of quorum decisions. Pinning the kQuorum records a
// captured trace holds guards the whole decision pipeline (evaluation,
// tie-break, commit bookkeeping, the Evaluate memo and trace emission)
// against silent behavioural drift.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_voting.h"
#include "core/test_topologies.h"
#include "net/network_state.h"
#include "obs/context.h"
#include "obs/test_trace_capture.h"

namespace dynvote {
namespace {

// One line per kQuorum record: protocol, outcome, reason and the site
// sets of the evaluation (T is the counted set).
std::string Render(const TraceEvent& e) {
  std::ostringstream os;
  os << e.protocol << " " << (e.granted ? "GRANTED" : "DENIED") << " "
     << QuorumReasonName(e.reason)
     << " group=" << SiteSet::FromMask(e.group)
     << " R=" << SiteSet::FromMask(e.set_r)
     << " Q=" << SiteSet::FromMask(e.set_q)
     << " S=" << SiteSet::FromMask(e.set_s)
     << " T=" << SiteSet::FromMask(e.set_t)
     << " Pm=" << SiteSet::FromMask(e.set_pm);
  return os.str();
}

TEST(GoldenTraceTest, WalkthroughDecisionSequence) {
  // A(0), B(1), C(2) on separate segments star-bridged through A.
  auto builder = Topology::Builder();
  SegmentId sa = builder.AddSegment("a");
  SegmentId sb = builder.AddSegment("b");
  SegmentId sc = builder.AddSegment("c");
  builder.AddSite("A", sa);
  builder.AddSite("B", sb);
  builder.AddSite("C", sc);
  builder.AddRepeater("ab", sa, sb);
  RepeaterId ac = builder.AddRepeater("ac", sa, sc);
  auto topo = builder.Build().MoveValue();

  testing_util::TraceCapture capture;
  ObsContext obs;
  obs.sink = capture.sink();
  auto odv = MakeODV(topo, SiteSet{0, 1, 2}).MoveValue();
  odv->set_obs(&obs);
  NetworkState net(topo);

  ASSERT_TRUE(odv->Write(net, 0).ok());       // full quorum
  net.SetSiteUp(1, false);                    // B fails
  ASSERT_TRUE(odv->Write(net, 2).ok());       // {A, C} majority
  net.SetRepeaterUp(ac, false);               // A-C link fails
  ASSERT_TRUE(odv->Write(net, 0).ok());       // A wins the tie
  ASSERT_TRUE(odv->Write(net, 2).IsNoQuorum());  // C loses it
  net.SetRepeaterUp(ac, true);
  ASSERT_TRUE(odv->Recover(net, 2).ok());     // C reintegrates
  net.SetSiteUp(1, true);
  ASSERT_TRUE(odv->Recover(net, 1).ok());     // B reintegrates, copies

  // LDV on the healed network: refresh decisions from OnNetworkEvent, a
  // denied read, and a refresh that re-grows the block.
  auto ldv = MakeLDV(topo, SiteSet{0, 1, 2}).MoveValue();
  ldv->set_obs(&obs);
  ASSERT_TRUE(ldv->Write(net, 0).ok());
  net.SetSiteUp(1, false);
  ldv->OnNetworkEvent(net);                   // {A, C} commit the block
  net.SetSiteUp(0, false);
  ldv->OnNetworkEvent(net);                   // C alone loses the tie
  ASSERT_TRUE(ldv->Read(net, 2).IsNoQuorum());
  net.SetSiteUp(0, true);
  net.SetSiteUp(1, true);
  ldv->OnNetworkEvent(net);                   // B is current but lags Q

  const std::vector<std::string> expected = {
      // ODV write@0
      "ODV GRANTED granted_majority group={0, 1, 2} R={0, 1, 2} "
      "Q={0, 1, 2} S={0, 1, 2} T={0, 1, 2} Pm={0, 1, 2}",
      // ODV write@2
      "ODV GRANTED granted_majority group={0, 2} R={0, 2} Q={0, 2} "
      "S={0, 2} T={0, 2} Pm={0, 1, 2}",
      // ODV write@0
      "ODV GRANTED granted_tie_lex group={0} R={0} Q={0} S={0} T={0} "
      "Pm={0, 2}",
      // ODV write@2
      "ODV DENIED denied_tie_lost group={2} R={2} Q={2} S={2} T={2} "
      "Pm={0, 2}",
      // ODV recover@2
      "ODV GRANTED granted_majority group={0, 2} R={0, 2} Q={0} S={0} "
      "T={0} Pm={0}",
      // ODV recover@1
      "ODV GRANTED granted_majority group={0, 1, 2} R={0, 1, 2} "
      "Q={0, 2} S={0, 2} T={0, 2} Pm={0, 2}",
      // LDV write@0
      "LDV GRANTED granted_majority group={0, 1, 2} R={0, 1, 2} "
      "Q={0, 1, 2} S={0, 1, 2} T={0, 1, 2} Pm={0, 1, 2}",
      // LDV refresh of {A, C}
      "LDV GRANTED granted_majority group={0, 2} R={0, 2} Q={0, 2} "
      "S={0, 2} T={0, 2} Pm={0, 1, 2}",
      // LDV refresh of {C}
      "LDV DENIED denied_tie_lost group={2} R={2} Q={2} S={2} T={2} "
      "Pm={0, 2}",
      // LDV read@2: the store has not moved since the refresh evaluated
      // {C}, so the Evaluate memo serves it and the record carries only
      // the group.
      "LDV DENIED cache_hit group={2} R={} Q={} S={} T={} Pm={}",
      // LDV refresh of {A, B, C}: B missed the refresh commit, so it holds
      // the current version (S) but not the highest operation (Q).
      "LDV GRANTED granted_majority group={0, 1, 2} R={0, 1, 2} Q={0, 2} "
      "S={0, 1, 2} T={0, 2} Pm={0, 2}",
  };
  std::vector<std::string> actual;
  for (const TraceEvent& e : capture.Events()) {
    ASSERT_EQ(e.type, TraceEventType::kQuorum);
    actual.push_back(Render(e));
  }
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace dynvote
