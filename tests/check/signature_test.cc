// The exact bytes CheckHarness::AppendSignature writes. The visited set
// keys on them and the visited digest hashes them, so any change to an
// encoder (network bits, rank-normalized replica ensembles, stale-value
// classes) would silently move every pinned digest; these literals,
// captured from the original stream-and-map encoders, fail first and
// say which field moved.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/action.h"
#include "check/harness.h"
#include "check/topologies.h"

namespace dynvote {
namespace check {
namespace {

std::string SignatureAfter(const std::string& protocol,
                           DifferentialOracle oracle,
                           const std::vector<CheckAction>& schedule) {
  auto topology = MakeCheckTopology("section3");
  EXPECT_TRUE(topology.ok()) << topology.status();
  InvariantPolicy policy;
  policy.oracle = oracle;
  auto harness = CheckHarness::Make(*topology, (*topology)->AllSites(),
                                    protocol, policy);
  EXPECT_TRUE(harness.ok()) << harness.status();
  for (const CheckAction& action : schedule) {
    EXPECT_FALSE((*harness)->Apply(action).has_value())
        << action.Token();
  }
  std::string signature;
  EXPECT_TRUE((*harness)->AppendSignature(&signature));
  return signature;
}

constexpr CheckAction kWrite{ActionKind::kWrite, -1};

TEST(HarnessSignatureTest, AppendSignatureBytesArePinned) {
  // Section 3 network: sites A B (alpha), C (gamma), D (delta); repeater
  // 0 joins alpha-gamma, repeater 1 joins alpha-delta.
  EXPECT_EQ(SignatureAfter("ODV", DifferentialOracle::kNone, {}),
            "n15r11|o0v0p15;o0v0p15;o0v0p15;o0v0p15;/e0,0,0,0,");
  EXPECT_EQ(SignatureAfter("ODV", DifferentialOracle::kNone, {kWrite}),
            "n15r11|o0v0p15;o0v0p15;o0v0p15;o0v0p15;/n1,1,1,1,");
  // D is cut off holding v0 and C holding v1 while A and B commit v2:
  // the two stale copies fall into classes 2 and 3.
  EXPECT_EQ(SignatureAfter("ODV", DifferentialOracle::kNone,
                           {kWrite,
                            {ActionKind::kToggleRepeater, 1},
                            kWrite,
                            {ActionKind::kToggleRepeater, 0},
                            kWrite}),
            "n15r00|o2v2p3;o2v2p3;o1v1p7;o0v0p15;/n1,1,2,3,");
  // Two arms, each with its own '|' section.
  EXPECT_EQ(SignatureAfter("LDV", DifferentialOracle::kQuorumCache,
                           {kWrite, {ActionKind::kToggleSite, 0}, kWrite}),
            "n14r11|o0v0p15;o1v1p14;o1v1p14;o1v1p14;/n2,1,1,1,"
            "|o0v0p15;o1v1p14;o1v1p14;o1v1p14;/n2,1,1,1,");
}

}  // namespace
}  // namespace check
}  // namespace dynvote
