// Integration: the replicated KV store on top of the regenerable-witness
// protocol — data moves correctly even as the membership itself changes
// under it.

#include <gtest/gtest.h>

#include "core/regenerating.h"
#include "core/test_topologies.h"
#include "kv/kv_store.h"
#include "util/rng.h"
#include "test_text.h"

namespace dynvote {
namespace {

std::unique_ptr<ReplicatedKvStore> MakeStore(
    std::shared_ptr<const Topology> topo, SiteSet data, SiteSet witnesses,
    int threshold) {
  RegeneratingOptions options;
  options.regeneration_threshold = threshold;
  auto protocol =
      RegeneratingVoting::Make(std::move(topo), data, witnesses, options);
  EXPECT_TRUE(protocol.ok());
  auto store = ReplicatedKvStore::Make(protocol.MoveValue());
  EXPECT_TRUE(store.ok());
  return store.MoveValue();
}

TEST(RegeneratingKvTest, DataFollowsTheQuorumThroughRegeneration) {
  auto topo = testing_util::SingleSegment(5);
  auto store = MakeStore(topo, SiteSet{0, 1}, SiteSet{2}, 1);
  auto* protocol =
      static_cast<RegeneratingVoting*>(store->protocol());
  NetworkState net(topo);

  ASSERT_TRUE(store->Put(net, 0, "k", "v1").ok());
  EXPECT_EQ(store->ReplicaContents(0).at("k"), "v1");
  EXPECT_EQ(store->ReplicaContents(1).at("k"), "v1");

  // Witness host dies; regeneration moves the witness to site 3.
  net.SetSiteUp(2, false);
  protocol->OnNetworkEvent(net);
  ASSERT_EQ(protocol->witnesses(), SiteSet{3});

  // Writes keep flowing with the fresh witness voting; data still lives
  // only on the data copies.
  net.SetSiteUp(1, false);
  protocol->OnNetworkEvent(net);
  ASSERT_TRUE(store->Put(net, 0, "k", "v2").ok());
  EXPECT_EQ(store->ReplicaContents(0).at("k"), "v2");

  // Data copy 1 returns and recovers through the quorum.
  net.SetSiteUp(1, true);
  protocol->OnNetworkEvent(net);
  EXPECT_EQ(store->ReplicaContents(1).at("k"), "v2");

  // Reads are served from data copies, never from witnesses.
  auto got = store->Get(net, 0, "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v2");
}

TEST(RegeneratingKvTest, LastWriteWinsUnderChurnWithRegeneration) {
  auto topo = testing_util::SingleSegment(5);
  auto store = MakeStore(topo, SiteSet{0, 1}, SiteSet{2}, 2);
  auto* protocol =
      static_cast<RegeneratingVoting*>(store->protocol());
  NetworkState net(topo);
  Rng rng(0x5EED);

  std::string last_committed;
  int counter = 0;
  int commits = 0;
  for (int step = 0; step < 3000; ++step) {
    SiteId s = static_cast<SiteId>(rng.NextBounded(5));
    net.SetSiteUp(s, rng.NextBernoulli(0.7));
    protocol->OnNetworkEvent(net);

    if (rng.NextBernoulli(0.4)) {
      std::string value = testing_util::Cat({"v", std::to_string(counter++)});
      for (SiteId origin = 0; origin < 5; ++origin) {
        if (!net.IsSiteUp(origin)) continue;
        Status st = store->Put(net, origin, "k", value);
        ASSERT_TRUE(st.ok() || st.IsNoQuorum()) << st;
        if (st.ok()) {
          last_committed = value;
          ++commits;
          break;
        }
      }
    } else {
      for (SiteId origin = 0; origin < 5; ++origin) {
        if (!net.IsSiteUp(origin)) continue;
        auto got = store->Get(net, origin, "k");
        if (got.status().IsNoQuorum() || got.status().IsUnavailable()) {
          continue;
        }
        if (last_committed.empty()) {
          ASSERT_TRUE(got.status().IsNotFound()) << "step " << step;
        } else {
          ASSERT_TRUE(got.ok()) << got.status() << " step " << step;
          ASSERT_EQ(*got, last_committed) << "step " << step;
        }
      }
    }
  }
  EXPECT_GT(commits, 200);
  EXPECT_GT(protocol->regenerations(), 0u);
}

}  // namespace
}  // namespace dynvote
