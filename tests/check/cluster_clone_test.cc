// KvCluster::Clone is the primitive CheckHarness::Clone is built on: a
// clone carries the network state, protocol state and replica contents
// of its source, and from then on neither sees the other's mutations.
//
// These tests live in check_tests, not kv_tests: the KvConsistencyTest
// names in kv_tests print their parameter's raw bytes, heap address
// included, so every test registered in that binary shifts them.

#include <gtest/gtest.h>

#include "core/test_topologies.h"
#include "kv/cluster.h"

namespace dynvote {
namespace {

using testing_util::Section3Network;
using testing_util::SingleSegment;

TEST(KvClusterCloneTest, CloneIsIndependentOfItsSource) {
  auto topo = Section3Network();
  auto source =
      KvCluster::Make(topo, SiteSet{0, 1, 2, 3}, "ODV").MoveValue();
  ASSERT_TRUE(source->Put(0, "k", "v1").ok());
  source->KillSite(3);
  ASSERT_TRUE(source->Put(0, "k", "v2").ok());  // 3 keeps v1

  auto clone = source->Clone();
  EXPECT_EQ(clone->store().ReplicaContents(3).at("k"), "v1");
  EXPECT_EQ(*clone->Get(1, "k"), "v2");

  // Mutating the clone (network, protocol state and contents) must not
  // show through on the source: the clone's store is its protocol's
  // commit hook, not the source's.
  clone->KillRepeater(0);
  ASSERT_TRUE(clone->Put(0, "k", "v3").ok());
  clone->RestartSite(3);
  EXPECT_EQ(clone->store().ReplicaContents(0).at("k"), "v3");

  EXPECT_FALSE(source->net().IsSiteUp(3));
  EXPECT_TRUE(source->net().IsRepeaterUp(0));
  for (SiteId s : {0, 1, 2}) {
    EXPECT_EQ(source->store().ReplicaContents(s).at("k"), "v2") << s;
  }
  EXPECT_EQ(source->store().ReplicaContents(3).at("k"), "v1");

  // ... and the source keeps writing into its own replicas.
  ASSERT_TRUE(source->Put(0, "k", "v4").ok());
  EXPECT_EQ(source->store().ReplicaContents(0).at("k"), "v4");
  EXPECT_EQ(clone->store().ReplicaContents(0).at("k"), "v3");
}

TEST(KvClusterCloneTest, CloneKeepsTheQuorumCacheDisabled) {
  // The model checker's quorum_cache oracle shadow is a cluster whose
  // protocol runs with every cache off; its clones must stay that way,
  // or the oracle would compare the cache against itself.
  auto topo = SingleSegment(3);
  auto cluster = KvCluster::Make(topo, SiteSet{0, 1, 2}, "ODV").MoveValue();
  cluster->store().protocol()->set_quorum_cache_enabled(false);
  auto clone = cluster->Clone();
  EXPECT_FALSE(clone->protocol().quorum_cache_enabled());
  EXPECT_FALSE(clone->Clone()->protocol().quorum_cache_enabled());
  EXPECT_TRUE(KvCluster::Make(topo, SiteSet{0, 1, 2}, "ODV")
                  .MoveValue()
                  ->Clone()
                  ->protocol()
                  .quorum_cache_enabled());
}

}  // namespace
}  // namespace dynvote
