// KvCluster::AssignFrom is the primitive CheckHarness::AssignFrom is
// built on: a cluster assigned from a source (a "clone") carries the
// source's network state, protocol state and replica contents, and from
// then on neither sees the other's mutations.
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

  auto clone = KvCluster::Make(topo, SiteSet{0, 1, 2, 3}, "ODV").MoveValue();
  clone->AssignFrom(*source);
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
  auto make = [&] {
    return KvCluster::Make(topo, SiteSet{0, 1, 2}, "ODV").MoveValue();
  };
  auto cluster = make();
  cluster->store().protocol()->set_quorum_cache_enabled(false);
  auto clone = make();
  clone->AssignFrom(*cluster);
  EXPECT_FALSE(clone->protocol().quorum_cache_enabled());
  auto second = make();
  second->AssignFrom(*clone);
  EXPECT_FALSE(second->protocol().quorum_cache_enabled());
  auto plain = make();
  plain->AssignFrom(*make());
  EXPECT_TRUE(plain->protocol().quorum_cache_enabled());
}

TEST(KvClusterCloneTest, WritesAfterAssignLandInTheTargetsOwnReplicas) {
  // The target ran its own history first (different contents, a site
  // down); after the assignment its store is still its protocol's commit
  // hook, so a write moves the target's replicas and never the source's.
  auto topo = Section3Network();
  auto make = [&] {
    return KvCluster::Make(topo, SiteSet{0, 1, 2, 3}, "LDV").MoveValue();
  };
  auto source = make();
  ASSERT_TRUE(source->Put(0, "k", "s1").ok());
  auto target = make();
  ASSERT_TRUE(target->Put(0, "k", "t1").ok());
  target->KillSite(2);
  ASSERT_TRUE(target->Put(0, "k", "t2").ok());

  target->AssignFrom(*source);
  EXPECT_TRUE(target->net().IsSiteUp(2));
  for (SiteId s : {0, 1, 2, 3}) {
    EXPECT_EQ(target->store().ReplicaContents(s).at("k"), "s1") << s;
  }
  ASSERT_TRUE(target->Put(0, "k", "t3").ok());
  for (SiteId s : {0, 1, 2, 3}) {
    EXPECT_EQ(target->store().ReplicaContents(s).at("k"), "t3") << s;
    EXPECT_EQ(source->store().ReplicaContents(s).at("k"), "s1") << s;
  }
  EXPECT_EQ(*source->Get(1, "k"), "s1");
  EXPECT_EQ(*target->Get(1, "k"), "t3");
}

TEST(KvClusterCloneDeathTest, AssignAcrossProtocolTypesDies) {
  auto topo = SingleSegment(3);
  auto odv = KvCluster::Make(topo, SiteSet{0, 1, 2}, "ODV").MoveValue();
  auto mcv = KvCluster::Make(topo, SiteSet{0, 1, 2}, "MCV").MoveValue();
  EXPECT_DEATH(odv->AssignFrom(*mcv), "AssignFrom across protocol types");
}

}  // namespace
}  // namespace dynvote
