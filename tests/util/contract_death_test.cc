// Contract documentation via death tests: the library's CHECK-guarded
// preconditions are part of its API — violating one is a bug at the call
// site, and these tests pin down that the process aborts (rather than
// silently corrupting protocol state, which for consistency-control code
// would be strictly worse than crashing).

#include <gtest/gtest.h>

#include <limits>

#include "model/experiment.h"
#include "model/sample_path.h"
#include "net/topology.h"
#include "repl/replica_store.h"
#include "sim/event_queue.h"
#include "stats/tracker.h"

namespace dynvote {
namespace {

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, EventQueueRunNextOnEmptyAborts) {
  EventQueue q;
  EXPECT_DEATH(q.RunNext(), "RunNext on empty queue");
}

TEST(ContractDeathTest, EventQueuePeekOnEmptyAborts) {
  EventQueue q;
  EXPECT_DEATH(q.PeekTime(), "PeekTime on empty queue");
}

TEST(ContractDeathTest, EventQueueNullCallbackAborts) {
  EventQueue q;
  EXPECT_DEATH(q.Schedule(1.0, nullptr), "null callback");
}

/// A one-site spec with no accesses whose profile is `profile`.
ExperimentSpec OneSiteSpec(const SiteProfile& profile) {
  auto builder = Topology::Builder();
  builder.AddSite("s", builder.AddSegment("lan"));
  ExperimentSpec spec;
  spec.topology = builder.Build().MoveValue();
  spec.profiles = {profile};
  spec.options.access.enabled = false;
  return spec;
}

TEST(ContractDeathTest, SamplePathNegativeDelayAborts) {
  // A negative restart time would schedule the repair in the past.
  // Validate refuses it; a path built from the unvalidated spec anyway
  // must still abort rather than run time backwards.
  SiteProfile profile;
  profile.mttf_days = 1.0;
  profile.restart_minutes = -5.0;
  const ExperimentSpec spec = OneSiteSpec(profile);
  ASSERT_FALSE(SamplePath::Validate(spec, SiteSet{0}).ok());
  EXPECT_DEATH(
      {
        SamplePath path(spec, SiteSet{0}, 1);
        while (path.Advance(Days(10))) path.Apply();
      },
      "finite and non-negative");
}

TEST(ContractDeathTest, SamplePathNonFiniteTimeAborts) {
  // An infinite maintenance interval puts the first window's staggered
  // start at an infinite absolute time. Validate refuses it; the path's
  // own check is the backstop for an unvalidated spec.
  SiteProfile profile;
  profile.mttf_days = 1.0;
  profile.maintenance_interval_days = std::numeric_limits<double>::infinity();
  profile.maintenance_hours = 3.0;
  const ExperimentSpec spec = OneSiteSpec(profile);
  ASSERT_FALSE(SamplePath::Validate(spec, SiteSet{0}).ok());
  EXPECT_DEATH({ SamplePath path(spec, SiteSet{0}, 1); }, "not in the past");
}

TEST(ContractDeathTest, TrackerTimeMovingBackwardsAborts) {
  AvailabilityTracker t(0.0, 10.0, 2);
  t.Update(5.0, false);
  EXPECT_DEATH(t.Update(4.0, true), "time moved backwards");
}

TEST(ContractDeathTest, TrackerDoubleFinishAborts) {
  AvailabilityTracker t(0.0, 10.0, 2);
  t.Finish(20.0);
  EXPECT_DEATH(t.Finish(20.0), "Finish called twice");
}

TEST(ContractDeathTest, ReplicaStoreNonMemberQueryAborts) {
  auto store = ReplicaStore::Make(SiteSet{0, 1}).MoveValue();
  EXPECT_DEATH(store.state(5), "holds no copy");
}

}  // namespace
}  // namespace dynvote
