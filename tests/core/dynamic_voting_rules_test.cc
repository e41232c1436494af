// Host-difference oracle for the shared Algorithm 1 reactions
// (core/dynamic_voting_rules.h). Both engines run the same reaction code;
// what differs is the host: DynamicVoting (memo, witness refusal,
// emission, a second evaluation per access) and the batched engine's
// PlainHost (the kernel behind the settled-group shortcut). Over random
// failure and repair schedules on the paper network and on Section 3's,
// for every paper dynamic policy and with the solo memo on and off, both
// hosts must leave equal replica states and message counts after every
// event, and grant the same groups.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_voting.h"
#include "core/dynamic_voting_rules.h"
#include "core/registry.h"
#include "core/test_topologies.h"
#include "model/site_profile.h"
#include "net/network_state.h"
#include "repl/message_bus.h"
#include "repl/replica_store.h"
#include "test_text.h"
#include "util/rng.h"

namespace dynvote {
namespace {

struct Universe {
  const char* name;
  std::shared_ptr<const Topology> topology;
  SiteSet placement;
};

std::vector<Universe> Universes() {
  auto paper = MakePaperNetwork();
  EXPECT_TRUE(paper.ok()) << paper.status();
  // Configuration B's five copies span all three of the paper's
  // segments; Section 3 places a copy at every site.
  return {{"paper", paper->topology, SiteSet{0, 1, 3, 5, 7}},
          {"section3", testing_util::Section3Network(), SiteSet{0, 1, 2, 3}}};
}

/// One failure or repair of a random site or repeater.
void RandomFlip(Rng* rng, const Topology& topology, NetworkState* net) {
  const int sites = topology.num_sites();
  const int pick = static_cast<int>(rng->NextBounded(
      static_cast<std::uint64_t>(sites + topology.num_repeaters())));
  const bool up = rng->NextBernoulli(0.55);
  if (pick < sites) {
    net->SetSiteUp(pick, up);
  } else {
    net->SetRepeaterUp(pick - sites, up);
  }
}

/// Equal (o, v, P) at every copy and equal message counts, or a failure
/// naming where the hosts parted.
::testing::AssertionResult SameState(const DynamicVoting& solo,
                                     const ReplicaStore& store,
                                     const MessageCounter& counter) {
  for (SiteId s : store.placement()) {
    if (!(solo.store().state(s) == store.state(s))) {
      return ::testing::AssertionFailure() << "copy " << s << " differs";
    }
  }
  for (int k = 0; k < kNumMessageKinds; ++k) {
    const auto kind = static_cast<MessageKind>(k);
    if (solo.counter().count(kind) != counter.count(kind)) {
      return ::testing::AssertionFailure()
             << MessageKindName(kind) << ": solo "
             << solo.counter().count(kind) << ", plain "
             << counter.count(kind);
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(DynamicVotingRulesTest, SoloAndPlainHostsAgreeAfterEveryEvent) {
  std::uint64_t accesses = 0;
  std::uint64_t granted = 0;
  std::uint64_t file_copies = 0;
  for (const Universe& u : Universes()) {
    for (const char* policy : {"DV", "LDV", "ODV", "TDV", "OTDV"}) {
      for (bool memo : {true, false}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          SCOPED_TRACE(testing_util::Cat({u.name, " ", policy,
                                          memo ? " memo" : " no-memo",
                                          " seed ", std::to_string(seed)}));
          auto made = MakeProtocolByName(policy, u.topology, u.placement);
          ASSERT_TRUE(made.ok()) << made.status();
          auto& solo = dynamic_cast<DynamicVoting&>(**made);
          solo.set_quorum_cache_enabled(memo);

          auto initial = ReplicaStore::Make(u.placement);
          ASSERT_TRUE(initial.ok());
          ReplicaStore store = initial.MoveValue();
          MessageCounter counter;
          dv_rules::PlainHost plain{
              store, counter, solo.options(),
              solo.options().topological ? u.topology.get() : nullptr};

          NetworkState net(u.topology);
          Rng rng(seed * 7919 + u.placement.mask());
          for (int step = 0; step < 400; ++step) {
            RandomFlip(&rng, *u.topology, &net);
            solo.OnNetworkEvent(net);
            if (solo.uses_instantaneous_information()) {
              dv_rules::Refresh(plain, net);
            }
            ASSERT_TRUE(SameState(solo, store, counter))
                << "after the refresh at step " << step;
            for (const SiteSet& group : net.Components()) {
              if (store.CopiesAmong(group).Empty()) continue;
              ASSERT_EQ(solo.Evaluate(group).granted,
                        plain.Evaluate(group).granted)
                  << "group " << group << " at step " << step;
            }

            for (int a = static_cast<int>(rng.NextBounded(3)); a > 0; --a) {
              const AccessType type = rng.NextBernoulli(0.5)
                                          ? AccessType::kWrite
                                          : AccessType::kRead;
              const bool solo_ok = solo.UserAccess(net, type).ok();
              const bool plain_ok =
                  !dv_rules::UserAccess(plain, net, type).copies.Empty();
              ASSERT_EQ(solo_ok, plain_ok) << "access at step " << step;
              ASSERT_TRUE(SameState(solo, store, counter))
                  << "after the access at step " << step;
              ++accesses;
              if (plain_ok) ++granted;
            }
          }
          file_copies += counter.count(MessageKind::kFileCopy);
        }
      }
    }
  }
  // The schedules must reach both outcomes, and stale copies that
  // recover, not only the all-up steady state.
  EXPECT_GT(granted, accesses / 4);
  EXPECT_LT(granted, accesses);
  EXPECT_GT(file_copies, 100u);
}

}  // namespace
}  // namespace dynvote
