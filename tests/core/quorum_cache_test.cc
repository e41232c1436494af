// Regression tests for the WouldGrant memoization (ConsistencyProtocol::
// CachedWouldGrant): the cache must be invalidated by every mutation path
// — Commit, Reset, mutable_state handouts (all three move the store
// epoch) and network changes (which change the component mask) — so a
// cached answer can never diverge from a fresh WouldGrant call.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_voting.h"
#include "core/registry.h"
#include "model/site_profile.h"
#include "net/network_state.h"
#include "repl/replica_store.h"
#include "util/rng.h"
#include "test_text.h"

namespace dynvote {
namespace {

std::shared_ptr<const Topology> SingleSegmentTopology(int num_sites) {
  auto builder = Topology::Builder();
  SegmentId seg = builder.AddSegment("lan");
  for (int i = 0; i < num_sites; ++i) {
    builder.AddSite(testing_util::Cat({"s", std::to_string(i)}), seg);
  }
  auto topo = builder.Build();
  EXPECT_TRUE(topo.ok());
  return topo.MoveValue();
}

// Every mutation path of the store moves the epoch — the invalidation
// key CachedWouldGrant relies on.
TEST(QuorumCacheTest, StoreEpochMovesOnEveryMutationPath) {
  auto store = ReplicaStore::Make(SiteSet{0, 1, 2});
  ASSERT_TRUE(store.ok());
  std::uint64_t epoch = store->epoch();

  store->Commit(SiteSet{0, 1, 2}, 2, 2, SiteSet{0, 1, 2});
  EXPECT_GT(store->epoch(), epoch);
  epoch = store->epoch();

  // Conservative by design: every handout counts as a mutation, whether
  // or not the caller writes through it.
  (void)store->mutable_state(1);
  EXPECT_GT(store->epoch(), epoch);
  epoch = store->epoch();

  store->Reset();
  EXPECT_GT(store->epoch(), epoch);
}

// Reset returns the store to the initial partition set; a cached grant
// computed against the pre-Reset state must not survive. The network is
// held fixed so the component mask — the cache key — is identical before
// and after, making a stale entry the only way this test can fail.
TEST(QuorumCacheTest, ResetInvalidatesCachedGrant) {
  auto topology = SingleSegmentTopology(3);
  auto ldv = MakeLDV(topology, SiteSet{0, 1, 2});
  ASSERT_TRUE(ldv.ok());
  DynamicVoting* p = ldv->get();
  NetworkState net(topology);

  // Shrink the majority block to {0} via two instantaneous refreshes.
  net.SetSiteUp(2, false);
  p->OnNetworkEvent(net);
  net.SetSiteUp(1, false);
  p->OnNetworkEvent(net);
  ASSERT_TRUE(p->CachedWouldGrant(net, 0, AccessType::kWrite));  // primes

  // Back to partition set {0, 1, 2}: site 0 alone is 1 of 3 — no quorum.
  p->Reset();
  EXPECT_FALSE(p->CachedWouldGrant(net, 0, AccessType::kWrite));
  EXPECT_FALSE(p->WouldGrant(net, 0, AccessType::kWrite));
}

// A network change moves the origin into a different (smaller) component;
// the cached grant for the old component must not be returned for it.
TEST(QuorumCacheTest, NetworkChangeInvalidatesCachedGrant) {
  auto topology = SingleSegmentTopology(3);
  auto ldv = MakeLDV(topology, SiteSet{0, 1, 2});
  ASSERT_TRUE(ldv.ok());
  DynamicVoting* p = ldv->get();
  NetworkState net(topology);

  ASSERT_TRUE(p->CachedWouldGrant(net, 2, AccessType::kWrite));  // primes

  // Optimistic-style setup: take sites 0 and 1 down *without* letting the
  // protocol refresh, so the replica state still says partition {0,1,2}.
  net.SetSiteUp(0, false);
  net.SetSiteUp(1, false);
  EXPECT_FALSE(p->CachedWouldGrant(net, 2, AccessType::kWrite));
  EXPECT_FALSE(p->WouldGrant(net, 2, AccessType::kWrite));
}

// Differential fuzz over every registered protocol on the paper network:
// random site/repeater flips, accesses (which Commit), recoveries, resets
// and refreshes, asserting after every step that the memoized answer
// equals a fresh WouldGrant for every live origin and both access types.
// Any missed invalidation path shows up as a divergence.
TEST(QuorumCacheTest, CachedAnswerNeverDivergesFromWouldGrant) {
  auto network = MakePaperNetwork();
  ASSERT_TRUE(network.ok());
  std::shared_ptr<const Topology> topology = network->topology;
  const SiteSet placement{0, 1, 3, 5, 7};
  const int num_sites = topology->num_sites();
  const int num_repeaters = topology->num_repeaters();

  Rng rng(0xCACE);
  for (const std::string& name : KnownProtocolNames()) {
    auto protocol = MakeProtocolByName(name, topology, placement);
    ASSERT_TRUE(protocol.ok()) << name;
    ConsistencyProtocol* p = protocol->get();
    NetworkState net(topology);

    for (int step = 0; step < 400; ++step) {
      double coin = rng.NextDouble();
      if (coin < 0.35) {
        SiteId s = static_cast<SiteId>(rng.NextBounded(num_sites));
        net.SetSiteUp(s, rng.NextBernoulli(0.7));
        p->OnNetworkEvent(net);
      } else if (coin < 0.45 && num_repeaters > 0) {
        RepeaterId r =
            static_cast<RepeaterId>(rng.NextBounded(num_repeaters));
        net.SetRepeaterUp(r, rng.NextBernoulli(0.7));
        p->OnNetworkEvent(net);
      } else if (coin < 0.75) {
        AccessType type = rng.NextBernoulli(0.5) ? AccessType::kWrite
                                                 : AccessType::kRead;
        (void)p->UserAccess(net, type);  // Commit path on grant
      } else if (coin < 0.85) {
        SiteId s = placement.RankMax();
        for (SiteId candidate : placement) {
          if (rng.NextBernoulli(0.3)) s = candidate;
        }
        if (net.IsSiteUp(s)) (void)p->Recover(net, s);
      } else if (coin < 0.9) {
        p->Reset();
      } else {
        net.AllUp();
        p->OnNetworkEvent(net);
      }

      for (SiteId s = 0; s < num_sites; ++s) {
        if (!net.IsSiteUp(s)) continue;
        for (AccessType type : {AccessType::kRead, AccessType::kWrite}) {
          ASSERT_EQ(p->CachedWouldGrant(net, s, type),
                    p->WouldGrant(net, s, type))
              << name << " diverged at step " << step << " origin " << s;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dynvote
