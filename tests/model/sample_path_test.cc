// The shared stochastic processes (model/sample_path.h): validation,
// the failure/repair/maintenance processes against theory, repeater
// partitions, the closed-loop access stream, the open-loop arrival
// streams, and the event-loop contract both engines rely on.

#include "model/sample_path.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/test_topologies.h"
#include "model/experiment.h"

namespace dynvote {
namespace {

SiteProfile SimpleProfile(double mttf_days, double repair_hours) {
  SiteProfile p;
  p.name = "site";
  p.mttf_days = mttf_days;
  p.hardware_fraction = 1.0;
  p.hw_repair_const_hours = 0.0;
  p.hw_repair_exp_hours = repair_hours;
  return p;
}

/// A spec with only the failure processes running (no accesses).
ExperimentSpec FailureSpec(std::shared_ptr<const Topology> topology,
                           std::vector<SiteProfile> profiles,
                           std::vector<RepeaterProfile> repeaters = {}) {
  ExperimentSpec spec;
  spec.topology = std::move(topology);
  spec.profiles = std::move(profiles);
  spec.repeater_profiles = std::move(repeaters);
  spec.options.access.enabled = false;
  return spec;
}

/// A spec with sites that never fail and the given closed-loop workload.
ExperimentSpec AccessSpec(const AccessOptions& access) {
  ExperimentSpec spec = FailureSpec(testing_util::SingleSegment(1),
                                    {SimpleProfile(1e12, 1.0)});
  spec.options.access = access;
  return spec;
}

ServingOptions TestServing() {
  ServingOptions o;
  o.enabled = true;
  o.arrival_rate_per_day = 90.0;
  o.service_time_ms = 2.0;
  o.msg_cost_ms = 0.5;
  o.write_fraction = 0.5;
  return o;
}

/// One applied event as the engine sees it.
struct Seen {
  double t;
  PathEvent::Kind kind;
  AccessType type;
  SiteId origin;
  SiteSet live;  // the network's live sites after the event

  bool operator==(const Seen&) const = default;
};

std::vector<Seen> Drive(SamplePath& path, SimTime horizon) {
  std::vector<Seen> seen;
  while (path.Advance(horizon)) {
    const PathEvent event = path.Apply();
    seen.push_back(Seen{path.now(), event.kind, event.type, event.origin,
                        path.net().LiveSites()});
  }
  return seen;
}

std::vector<Seen> Drive(const ExperimentSpec& spec, SiteSet arrival_sites,
                        std::uint64_t seed, SimTime horizon) {
  EXPECT_TRUE(SamplePath::Validate(spec, arrival_sites).ok());
  SamplePath path(spec, arrival_sites, seed);
  return Drive(path, horizon);
}

/// Time site 0 spent down over [0, horizon], from the applied events.
double DownTime(const std::vector<Seen>& seen, double horizon) {
  double down = 0.0;
  double last_t = 0.0;
  bool was_up = true;
  for (const Seen& s : seen) {
    if (!was_up) down += s.t - last_t;
    last_t = s.t;
    was_up = s.live.Contains(0);
  }
  if (!was_up) down += horizon - last_t;
  return down;
}

/// Up-to-down transitions of site 0.
int DownTransitions(const std::vector<Seen>& seen) {
  int transitions = 0;
  bool was_up = true;
  for (const Seen& s : seen) {
    if (was_up && !s.live.Contains(0)) ++transitions;
    was_up = s.live.Contains(0);
  }
  return transitions;
}

// --- validation ------------------------------------------------------------

TEST(SamplePathTest, ValidateRejectsBadProfiles) {
  auto topo = testing_util::SingleSegment(2);
  const SiteSet sites{0, 1};
  const SiteProfile good = SimpleProfile(10, 2);
  EXPECT_TRUE(SamplePath::Validate(FailureSpec(topo, {good, good}), sites)
                  .ok());
  // Wrong profile count.
  EXPECT_EQ(SamplePath::Validate(FailureSpec(topo, {good}), sites),
            Status::InvalidArgument("need one SiteProfile per site"));
  // Bad MTTF.
  EXPECT_EQ(SamplePath::Validate(
                FailureSpec(topo, {SimpleProfile(0, 2), good}), sites),
            Status::InvalidArgument("site MTTF must be > 0"));
  // Bad hardware fraction.
  SiteProfile bad = good;
  bad.hardware_fraction = 1.5;
  EXPECT_EQ(SamplePath::Validate(FailureSpec(topo, {bad, good}), sites),
            Status::InvalidArgument("hardware fraction outside [0, 1]"));
  // Repeater profiles: one per repeater, positive MTTF.
  auto pair = testing_util::TwoPairSegments();
  std::vector<SiteProfile> four(4, good);
  EXPECT_EQ(SamplePath::Validate(FailureSpec(pair, four), SiteSet{0}),
            Status::InvalidArgument("need one RepeaterProfile per repeater"));
  EXPECT_EQ(SamplePath::Validate(
                FailureSpec(pair, four, {RepeaterProfile{"r", 0.0, 0.0, 1.0}}),
                SiteSet{0}),
            Status::InvalidArgument("repeater MTTF must be > 0"));
  // No topology at all.
  EXPECT_EQ(SamplePath::Validate(ExperimentSpec{}, sites),
            Status::InvalidArgument("experiment needs a topology"));
}

TEST(SamplePathTest, ValidateRejectsBadWindow) {
  ExperimentSpec spec =
      FailureSpec(testing_util::SingleSegment(1), {SimpleProfile(10, 2)});
  const Status bad_window = Status::InvalidArgument("bad measurement window");
  ExperimentSpec no_batches = spec;
  no_batches.options.num_batches = 0;
  EXPECT_EQ(SamplePath::Validate(no_batches, SiteSet{0}), bad_window);
  ExperimentSpec negative_warmup = spec;
  negative_warmup.options.warmup = -1.0;
  EXPECT_EQ(SamplePath::Validate(negative_warmup, SiteSet{0}), bad_window);
  // A horizon the clock can never reach.
  ExperimentSpec endless = spec;
  endless.options.batch_length = std::numeric_limits<double>::infinity();
  EXPECT_EQ(SamplePath::Validate(endless, SiteSet{0}), bad_window);
}

TEST(SamplePathTest, ValidateRejectsBadAccessOptions) {
  AccessOptions bad_rate;
  bad_rate.rate_per_day = 0.0;
  EXPECT_EQ(SamplePath::Validate(AccessSpec(bad_rate), SiteSet{0}),
            Status::InvalidArgument("access rate must be > 0"));
  AccessOptions bad_write;
  bad_write.write_fraction = 1.5;
  EXPECT_EQ(SamplePath::Validate(AccessSpec(bad_write), SiteSet{0}),
            Status::InvalidArgument("write fraction outside [0, 1]"));
  // A disabled workload's rate is never read.
  AccessOptions disabled;
  disabled.enabled = false;
  disabled.rate_per_day = -5.0;
  EXPECT_TRUE(SamplePath::Validate(AccessSpec(disabled), SiteSet{0}).ok());
}

TEST(SamplePathTest, ValidateRejectsBadServingOptions) {
  ExperimentSpec spec = AccessSpec(AccessOptions{});
  spec.options.serving = TestServing();
  const SiteSet sites{0};
  EXPECT_TRUE(SamplePath::Validate(spec, sites).ok());
  EXPECT_EQ(SamplePath::Validate(spec, SiteSet{}),
            Status::InvalidArgument("open-loop traffic needs arrival sites"));
  ExperimentSpec bad_rate = spec;
  bad_rate.options.serving.arrival_rate_per_day = 0.0;
  EXPECT_EQ(SamplePath::Validate(bad_rate, sites),
            Status::InvalidArgument("arrival rate must be > 0"));
  ExperimentSpec bad_service = spec;
  bad_service.options.serving.service_time_ms = -1.0;
  EXPECT_EQ(SamplePath::Validate(bad_service, sites),
            Status::InvalidArgument("service costs must be >= 0"));
  ExperimentSpec bad_cost = spec;
  bad_cost.options.serving.msg_cost_ms = -0.1;
  EXPECT_EQ(SamplePath::Validate(bad_cost, sites),
            Status::InvalidArgument("service costs must be >= 0"));
  ExperimentSpec bad_fraction = spec;
  bad_fraction.options.serving.write_fraction = 1.5;
  EXPECT_EQ(SamplePath::Validate(bad_fraction, sites),
            Status::InvalidArgument("write fraction outside [0, 1]"));
  // With serving on, the closed-loop options are not read.
  ExperimentSpec unread_access = spec;
  unread_access.options.access.rate_per_day = 0.0;
  EXPECT_TRUE(SamplePath::Validate(unread_access, sites).ok());
}

// --- the event loop --------------------------------------------------------

TEST(SamplePathTest, ClockStartsAtZero) {
  AccessOptions daily;
  daily.deterministic = true;
  SamplePath path(AccessSpec(daily), SiteSet{0}, 1);
  EXPECT_EQ(path.now(), 0.0);
  EXPECT_EQ(path.net().LiveSites(), SiteSet{0});
  ASSERT_TRUE(path.Advance(Days(10)));
  EXPECT_EQ(path.now(), 1.0);
}

TEST(SamplePathTest, EventsAdvanceInTimeOrder) {
  auto topo = testing_util::SingleSegment(3);
  ExperimentSpec spec =
      FailureSpec(topo, std::vector<SiteProfile>(3, SimpleProfile(5.0, 12.0)));
  spec.options.access.enabled = true;
  const std::vector<Seen> seen = Drive(spec, SiteSet{0, 1, 2}, 3, Years(1));
  ASSERT_GT(seen.size(), 300u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LE(seen[i - 1].t, seen[i].t) << "event " << i;
  }
  EXPECT_LE(seen.back().t, Years(1));
}

TEST(SamplePathTest, EventsBeyondHorizonStayPending) {
  AccessOptions daily;
  daily.deterministic = true;
  SamplePath path(AccessSpec(daily), SiteSet{0}, 1);
  EXPECT_EQ(Drive(path, 2.5).size(), 2u);
  EXPECT_FALSE(path.Advance(2.5));
  // The access at t = 3 was not lost: a later horizon reaches it.
  ASSERT_TRUE(path.Advance(3.5));
  EXPECT_EQ(path.now(), 3.0);
}

TEST(SamplePathTest, AdvanceRunsOneEvent) {
  AccessOptions daily;
  daily.deterministic = true;
  SamplePath path(AccessSpec(daily), SiteSet{0}, 1);
  ASSERT_TRUE(path.Advance(2.5));
  EXPECT_EQ(path.now(), 1.0);
  EXPECT_EQ(path.Apply().kind, PathEvent::Kind::kAccess);
  ASSERT_TRUE(path.Advance(2.5));
  EXPECT_EQ(path.now(), 2.0);
  EXPECT_EQ(path.Apply().kind, PathEvent::Kind::kAccess);
  EXPECT_FALSE(path.Advance(2.5));
  EXPECT_EQ(path.now(), 2.0);
}

TEST(SamplePathTest, EventAtExactHorizonRuns) {
  AccessOptions daily;
  daily.deterministic = true;
  SamplePath path(AccessSpec(daily), SiteSet{0}, 1);
  ASSERT_TRUE(path.Advance(1.0));
  EXPECT_EQ(path.now(), 1.0);
}

// --- failures, repairs, maintenance, repeaters -----------------------------

TEST(SamplePathTest, GeneratesFailuresAndRepairs) {
  const std::vector<Seen> seen =
      Drive(FailureSpec(testing_util::SingleSegment(1),
                        {SimpleProfile(10.0, 24.0)}),
            SiteSet{0}, 7, Years(10));
  // ~365 failures expected over 10 years; each is one failure and one
  // repair event, alternating down and up.
  const int failures = DownTransitions(seen);
  EXPECT_GT(failures, 200);
  EXPECT_LT(failures, 600);
  EXPECT_LE(seen.size(), static_cast<std::size_t>(2 * failures));
  EXPECT_GE(seen.size(), static_cast<std::size_t>(2 * failures - 1));
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].kind, PathEvent::Kind::kNetwork);
    EXPECT_EQ(seen[i].live.Contains(0), i % 2 == 1) << "event " << i;
  }
}

TEST(SamplePathTest, SingleSiteAvailabilityMatchesTheory) {
  // Exponential failures (MTTF m) with exponential repair (mean r) give
  // steady-state availability m / (m + r). This validates the whole
  // failure/repair pipeline against the Markov closed form.
  const double mttf = 10.0;
  const double repair_days = 1.0;
  const double horizon = Years(4000);
  const std::vector<Seen> seen =
      Drive(FailureSpec(testing_util::SingleSegment(1),
                        {SimpleProfile(mttf, repair_days * 24.0)}),
            SiteSet{0}, 99, horizon);
  const double availability = 1.0 - DownTime(seen, horizon) / horizon;
  EXPECT_NEAR(availability, mttf / (mttf + repair_days), 0.005);
}

TEST(SamplePathTest, MixedRepairsUsesRestartForSoftware) {
  // hardware_fraction = 0: every repair is a (fast) software restart, so
  // availability must be very high even with a huge hardware repair term.
  SiteProfile p = SimpleProfile(1.0, 10000.0);
  p.hardware_fraction = 0.0;
  p.restart_minutes = 1.0;
  const std::vector<Seen> seen = Drive(
      FailureSpec(testing_util::SingleSegment(1), {p}), SiteSet{0}, 5,
      Years(20));
  // Expected unavailability ~ 1 minute per day ~ 7e-4.
  EXPECT_LT(DownTime(seen, Years(20)) / Years(20), 0.01);
  EXPECT_GT(DownTransitions(seen), 1000);
}

TEST(SamplePathTest, MaintenanceWindowsHappen) {
  SiteProfile p = SimpleProfile(1e9, 1.0);  // effectively never fails
  p.maintenance_interval_days = 90.0;
  p.maintenance_hours = 3.0;
  const double horizon = Days(900.0);
  const std::vector<Seen> seen =
      Drive(FailureSpec(testing_util::SingleSegment(1), {p}), SiteSet{0}, 3,
            horizon);
  // 9-10 windows of 3 h in 900 days.
  const int windows = DownTransitions(seen);
  EXPECT_GE(windows, 9);
  EXPECT_LE(windows, 11);
  EXPECT_NEAR(DownTime(seen, horizon), windows * Hours(3.0), 1e-9);
}

TEST(SamplePathTest, FirstMaintenanceWindowIsStaggered) {
  // Each site draws its first window uniformly over one interval, so the
  // windows of identical sites open at different times.
  SiteProfile p = SimpleProfile(1e12, 1.0);
  p.maintenance_interval_days = 90.0;
  p.maintenance_hours = 3.0;
  const std::vector<Seen> seen =
      Drive(FailureSpec(testing_util::SingleSegment(4),
                        std::vector<SiteProfile>(4, p)),
            SiteSet{0, 1, 2, 3}, 11, Days(90.0));
  // Exactly one window opens (and closes) per site within the first
  // interval, each at its own time.
  ASSERT_EQ(seen.size(), 8u);
  std::vector<double> opens;
  SiteSet live{0, 1, 2, 3};
  for (const Seen& s : seen) {
    if (s.live.Size() < live.Size()) opens.push_back(s.t);
    live = s.live;
  }
  ASSERT_EQ(opens.size(), 4u);
  for (std::size_t i = 1; i < opens.size(); ++i) {
    EXPECT_LT(opens[i - 1], opens[i]);
  }
  EXPECT_GE(opens.front(), 0.0);
  EXPECT_LT(opens.back(), 90.0);
}

TEST(SamplePathTest, MaintenanceStopsTheFailureClock) {
  // A site in maintenance half the time, failing daily while powered,
  // with one-minute restarts. A failure clock that kept running through
  // a window would fire inside it and publish a "down" that changes
  // nothing; with the clock stopped such no-op publishes need a window
  // to open during a one-minute restart, which is rare.
  SiteProfile p = SimpleProfile(1.0, 1.0);
  p.hardware_fraction = 0.0;
  p.restart_minutes = 1.0;
  p.maintenance_interval_days = 2.0;
  p.maintenance_hours = 24.0;
  const std::vector<Seen> seen = Drive(
      FailureSpec(testing_util::SingleSegment(1), {p}), SiteSet{0}, 17,
      Days(1000.0));
  int no_op_publishes = 0;
  bool was_up = true;
  for (const Seen& s : seen) {
    if (s.live.Contains(0) == was_up) ++no_op_publishes;
    was_up = s.live.Contains(0);
  }
  EXPECT_GT(seen.size(), 1500u);
  EXPECT_LE(no_op_publishes, 2);
}

TEST(SamplePathTest, RepeaterFailuresPartition) {
  // ~140 repeater failures expected in two years; no site ever goes
  // down, so every event is a repeater flip and every other one splits
  // the network.
  std::vector<SiteProfile> profiles(4, SimpleProfile(1e9, 1.0));
  SamplePath path(FailureSpec(testing_util::TwoPairSegments(), profiles,
                              {RepeaterProfile{"bridge", 5.0, 0.0, 24.0}}),
                  SiteSet{0, 1, 2, 3}, 11);
  int partitions = 0;
  while (path.Advance(Years(2))) {
    path.Apply();
    EXPECT_EQ(path.net().LiveSites(), (SiteSet{0, 1, 2, 3}));
    if (path.net().Components().size() > 1) ++partitions;
  }
  EXPECT_GT(partitions, 50);
}

TEST(SamplePathTest, DeterministicForFixedSeed) {
  auto topo = testing_util::SingleSegment(3);
  ExperimentSpec spec =
      FailureSpec(topo, std::vector<SiteProfile>(3, SimpleProfile(5.0, 12.0)));
  spec.options.access.enabled = true;
  const std::vector<Seen> first = Drive(spec, SiteSet{0, 1, 2}, 42, Years(1));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, Drive(spec, SiteSet{0, 1, 2}, 42, Years(1)));
  EXPECT_NE(first, Drive(spec, SiteSet{0, 1, 2}, 43, Years(1)));
}

// --- the closed-loop access stream -----------------------------------------

TEST(SamplePathTest, PoissonAccessRate) {
  AccessOptions options;
  options.rate_per_day = 2.0;
  const std::vector<Seen> seen =
      Drive(AccessSpec(options), SiteSet{0}, 7, Days(5000));
  for (const Seen& s : seen) EXPECT_EQ(s.kind, PathEvent::Kind::kAccess);
  EXPECT_NEAR(static_cast<double>(seen.size()) / 5000.0, 2.0, 0.1);
}

TEST(SamplePathTest, DeterministicAccessGaps) {
  AccessOptions options;
  options.rate_per_day = 1.0;
  options.deterministic = true;
  const std::vector<Seen> seen =
      Drive(AccessSpec(options), SiteSet{0}, 7, Days(5.5));
  ASSERT_EQ(seen.size(), 5u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_DOUBLE_EQ(seen[i].t, static_cast<double>(i + 1));
  }
}

TEST(SamplePathTest, SelfReschedulingAccessStream) {
  // Each applied access schedules the next one, so a single seeded
  // event keeps the stream going for as long as the path is driven.
  AccessOptions options;
  options.rate_per_day = 1.0;
  options.deterministic = true;
  SamplePath path(AccessSpec(options), SiteSet{0}, 7);
  EXPECT_EQ(Drive(path, 10.5).size(), 10u);
  EXPECT_EQ(path.now(), 10.0);
  EXPECT_EQ(Drive(path, 20.5).size(), 10u);
  EXPECT_EQ(path.now(), 20.0);
}

TEST(SamplePathTest, AccessWriteFraction) {
  AccessOptions options;
  options.rate_per_day = 10.0;
  options.write_fraction = 0.25;
  const std::vector<Seen> seen =
      Drive(AccessSpec(options), SiteSet{0}, 13, Days(2000));
  std::size_t writes = 0;
  for (const Seen& s : seen) writes += s.type == AccessType::kWrite ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(writes) / seen.size(), 0.25, 0.02);
}

TEST(SamplePathTest, AllReadsOrAllWrites) {
  for (double fraction : {0.0, 1.0}) {
    AccessOptions options;
    options.rate_per_day = 5.0;
    options.write_fraction = fraction;
    const std::vector<Seen> seen =
        Drive(AccessSpec(options), SiteSet{0}, 17, Days(100));
    ASSERT_FALSE(seen.empty());
    for (const Seen& s : seen) {
      EXPECT_EQ(s.type == AccessType::kWrite, fraction == 1.0);
    }
  }
}

TEST(SamplePathTest, DisabledAccessGeneratesNothing) {
  AccessOptions options;
  options.enabled = false;
  options.rate_per_day = -5.0;  // ignored when disabled
  SamplePath path(AccessSpec(options), SiteSet{0}, 19);
  EXPECT_FALSE(path.Advance(Days(100)));
}

// --- the open-loop arrival streams -----------------------------------------

std::vector<Seen> CollectArrivals(std::uint64_t seed, double horizon) {
  ExperimentSpec spec = FailureSpec(
      testing_util::SingleSegment(6),
      std::vector<SiteProfile>(6, SimpleProfile(1e12, 1.0)));
  spec.options.serving = TestServing();
  return Drive(spec, SiteSet{1, 3, 5}, seed, horizon);
}

TEST(SamplePathTest, SameSeedReproducesTheArrivalSequence) {
  const std::vector<Seen> first = CollectArrivals(42, 20.0);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, CollectArrivals(42, 20.0));
  EXPECT_NE(first, CollectArrivals(43, 20.0));
}

TEST(SamplePathTest, SplitsTheArrivalRateAcrossReplicas) {
  // 90/day over 50 days: expect ~4500 arrivals, ~1500 per site, both
  // access types drawn. Deterministic, so the loose bands never flake.
  const std::vector<Seen> arrivals = CollectArrivals(7, 50.0);
  EXPECT_GT(arrivals.size(), 3600u);
  EXPECT_LT(arrivals.size(), 5400u);
  std::uint64_t per_site[6] = {};
  std::uint64_t writes = 0;
  for (const Seen& a : arrivals) {
    ASSERT_EQ(a.kind, PathEvent::Kind::kArrival);
    ASSERT_GE(a.origin, 0);
    ASSERT_LT(a.origin, 6);
    ++per_site[a.origin];
    if (a.type == AccessType::kWrite) ++writes;
  }
  EXPECT_EQ(per_site[0] + per_site[2] + per_site[4], 0u);
  for (SiteId site : {1, 3, 5}) {
    EXPECT_GT(per_site[site], 1000u) << "site " << site;
    EXPECT_LT(per_site[site], 2000u) << "site " << site;
  }
  EXPECT_GT(writes, arrivals.size() / 3);
  EXPECT_LT(writes, 2 * arrivals.size() / 3);
}

}  // namespace
}  // namespace dynvote
