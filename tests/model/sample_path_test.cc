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
#include "model/site_profile.h"
#include "sim/calendar_queue.h"
#include "sim/time.h"
#include "test_text.h"
#include "util/rng.h"

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

  // Every restart, repair and maintenance duration becomes an event
  // delay, so a negative, infinite or NaN one is refused with a Status
  // instead of reaching the calendar's abort.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto site_status = [&](void (*spoil)(SiteProfile*, double), double v) {
    SiteProfile bad = good;
    spoil(&bad, v);
    return SamplePath::Validate(FailureSpec(topo, {good, bad}), sites);
  };
  const Status bad_repair = Status::InvalidArgument(
      "site restart and repair times must be finite and >= 0");
  const Status bad_maintenance = Status::InvalidArgument(
      "maintenance interval and hours must be finite and >= 0");
  for (double v : {-20.0, -1e-9, inf, nan}) {
    SCOPED_TRACE(v);
    EXPECT_EQ(site_status([](SiteProfile* p, double x) {
                p->restart_minutes = x;
              }, v), bad_repair);
    EXPECT_EQ(site_status([](SiteProfile* p, double x) {
                p->hw_repair_const_hours = x;
              }, v), bad_repair);
    EXPECT_EQ(site_status([](SiteProfile* p, double x) {
                p->hw_repair_exp_hours = x;
              }, v), bad_repair);
    EXPECT_EQ(site_status([](SiteProfile* p, double x) {
                p->maintenance_interval_days = x;
                p->maintenance_hours = 3.0;
              }, v), bad_maintenance);
    EXPECT_EQ(site_status([](SiteProfile* p, double x) {
                p->maintenance_interval_days = 90.0;
                p->maintenance_hours = x;
              }, v), bad_maintenance);
  }
  const Status bad_fraction =
      Status::InvalidArgument("hardware fraction outside [0, 1]");
  for (double v : {inf, nan}) {
    EXPECT_FALSE(site_status([](SiteProfile* p, double x) {
                   p->mttf_days = x;
                 }, v).ok());
    EXPECT_EQ(site_status([](SiteProfile* p, double x) {
                p->hardware_fraction = x;
              }, v), bad_fraction);
  }
  // A window longer than its interval would start the next one before
  // this one ends; a window of exactly the interval is allowed, as is a
  // window length without an interval (no maintenance at all).
  EXPECT_EQ(site_status([](SiteProfile* p, double) {
              p->maintenance_interval_days = 1.0;
              p->maintenance_hours = 48.0;
            }, 0), Status::InvalidArgument(
                       "maintenance window longer than its interval"));
  EXPECT_TRUE(site_status([](SiteProfile* p, double) {
                p->maintenance_interval_days = 1.0;
                p->maintenance_hours = 24.0;
              }, 0).ok());
  EXPECT_TRUE(site_status([](SiteProfile* p, double) {
                p->maintenance_interval_days = 0.0;
                p->maintenance_hours = 48.0;
              }, 0).ok());

  // An exponential mean so large that its longest draw overflows would
  // schedule an event at infinity. The longest draw is about 36.7 means.
  const Status huge_mttf = Status::InvalidArgument(
      "site MTTF too large: its longest draw is not finite");
  const Status huge_repair = Status::InvalidArgument(
      "site repair times too large: the longest repair is not finite");
  for (double v : {1.7e308, 1e308, 5e306}) {
    SCOPED_TRACE(v);
    EXPECT_EQ(site_status([](SiteProfile* p, double x) {
                p->mttf_days = x;
              }, v), huge_mttf);
    EXPECT_EQ(site_status([](SiteProfile* p, double x) {
                p->hw_repair_exp_hours = x;
              }, v), huge_repair);
  }
  EXPECT_TRUE(site_status([](SiteProfile* p, double x) {
                p->mttf_days = x;
                p->hw_repair_exp_hours = x;
                p->hw_repair_const_hours = x;
              }, 4e306).ok());

  // Repeaters: finite MTTF, finite non-negative repair times.
  auto repeater_status = [&](RepeaterProfile r) {
    return SamplePath::Validate(FailureSpec(pair, four, {r}), SiteSet{0});
  };
  EXPECT_TRUE(repeater_status(RepeaterProfile{"r", 30.0, 4.0, 2.0}).ok());
  EXPECT_EQ(repeater_status(RepeaterProfile{"r", inf, 4.0, 2.0}),
            Status::InvalidArgument("repeater MTTF must be finite"));
  EXPECT_EQ(repeater_status(RepeaterProfile{"r", nan, 4.0, 2.0}),
            Status::InvalidArgument("repeater MTTF must be > 0"));
  const Status bad_repeater_repair = Status::InvalidArgument(
      "repeater repair times must be finite and >= 0");
  for (double v : {-1.0, inf, nan}) {
    SCOPED_TRACE(v);
    EXPECT_EQ(repeater_status(RepeaterProfile{"r", 30.0, v, 2.0}),
              bad_repeater_repair);
    EXPECT_EQ(repeater_status(RepeaterProfile{"r", 30.0, 4.0, v}),
              bad_repeater_repair);
  }
  for (double v : {1.7e308, 5e306}) {
    SCOPED_TRACE(v);
    EXPECT_EQ(repeater_status(RepeaterProfile{"r", v, 4.0, 2.0}),
              Status::InvalidArgument(
                  "repeater MTTF too large: its longest draw is not finite"));
    EXPECT_EQ(repeater_status(RepeaterProfile{"r", 30.0, 4.0, v}),
              Status::InvalidArgument("repeater repair times too large: the "
                                      "longest repair is not finite"));
  }
  EXPECT_TRUE(
      repeater_status(RepeaterProfile{"r", 4e306, 4e306, 4e306}).ok());
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
  // A rate so small that the longest exponential gap overflows.
  AccessOptions tiny_rate;
  tiny_rate.rate_per_day = 1e-307;
  EXPECT_EQ(SamplePath::Validate(AccessSpec(tiny_rate), SiteSet{0}),
            Status::InvalidArgument(
                "access rate too small: the longest gap is not finite"));
  tiny_rate.rate_per_day = 1e-306;
  EXPECT_TRUE(SamplePath::Validate(AccessSpec(tiny_rate), SiteSet{0}).ok());
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
  // Each arrival site's stream gets rate / sites; its longest gap must
  // stay finite.
  ExperimentSpec tiny_rate = spec;
  tiny_rate.options.serving.arrival_rate_per_day = 4e-307;
  EXPECT_TRUE(SamplePath::Validate(tiny_rate, sites).ok());
  EXPECT_EQ(SamplePath::Validate(tiny_rate, SiteSet{0, 1, 2}),
            Status::InvalidArgument(
                "arrival rate too small: the longest gap is not finite"));
  tiny_rate.options.serving.arrival_rate_per_day =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(SamplePath::Validate(tiny_rate, sites).ok());
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
  const ExperimentSpec spec = AccessSpec(daily);
  SamplePath path(spec, SiteSet{0}, 1);
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
  const ExperimentSpec spec = AccessSpec(daily);
  SamplePath path(spec, SiteSet{0}, 1);
  EXPECT_EQ(Drive(path, 2.5).size(), 2u);
  EXPECT_FALSE(path.Advance(2.5));
  // The access at t = 3 was not lost: a later horizon reaches it.
  ASSERT_TRUE(path.Advance(3.5));
  EXPECT_EQ(path.now(), 3.0);
}

TEST(SamplePathTest, AdvanceRunsOneEvent) {
  AccessOptions daily;
  daily.deterministic = true;
  const ExperimentSpec spec = AccessSpec(daily);
  SamplePath path(spec, SiteSet{0}, 1);
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
  const ExperimentSpec spec = AccessSpec(daily);
  SamplePath path(spec, SiteSet{0}, 1);
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

/// The site failure, repair and maintenance processes of the
/// determinism contract (model/sample_path.h), written out again on a
/// calendar that pops each event as it is taken and schedules every
/// follow-up with Schedule(): the reference for SamplePath, which leaves
/// the applied event on the calendar's top for its first follow-up to
/// replace.
class PopEachEventPath {
 public:
  PopEachEventPath(const std::vector<SiteProfile>& profiles,
                   std::uint64_t seed)
      : profiles_(profiles), sites_(profiles.size()) {
    Rng master(seed);
    for (Site& site : sites_) site.rng = master.Split();
    for (SiteId s = 0; s < static_cast<SiteId>(sites_.size()); ++s) {
      ScheduleFailure(s);
      const SiteProfile& p = profiles_[static_cast<std::size_t>(s)];
      if (p.maintenance_interval_days > 0.0 && p.maintenance_hours > 0.0) {
        const double phase =
            sites_[static_cast<std::size_t>(s)].rng.NextDouble() *
            p.maintenance_interval_days;
        queue_.Schedule(Days(phase), Pack(kMaintenanceStart, s));
      }
    }
  }

  /// Pops the next live event at or before `horizon`.
  bool Advance(SimTime horizon) {
    while (!queue_.Empty() && Cancelled(queue_.Peek().payload)) {
      queue_.PopNext();
    }
    if (queue_.Empty() || queue_.PeekTime() > horizon) return false;
    const CalendarEvent event = queue_.PopNext();
    now_ = event.when;
    current_ = event.payload;
    return true;
  }

  /// Applies the popped event; returns how many follow-ups it scheduled.
  int Apply() {
    const std::size_t before = queue_.Size();
    const SiteId s = static_cast<SiteId>((current_ >> 3) & 0xFF);
    Site& site = sites_[static_cast<std::size_t>(s)];
    const SiteProfile& p = profiles_[static_cast<std::size_t>(s)];
    switch (current_ & 0x7) {
      case kFailure: {
        site.failed = true;
        SimTime repair;
        if (site.rng.NextBernoulli(p.hardware_fraction)) {
          repair = Hours(p.hw_repair_const_hours);
          if (p.hw_repair_exp_hours > 0.0) {
            repair += Hours(site.rng.NextExponential(p.hw_repair_exp_hours));
          }
        } else {
          repair = Minutes(p.restart_minutes);
        }
        queue_.Schedule(now_ + repair, Pack(kRepair, s));
        break;
      }
      case kRepair:
        site.failed = false;
        if (site.Up()) ScheduleFailure(s);
        break;
      case kMaintenanceStart:
        site.in_maintenance = true;
        ++site.generation;
        queue_.Schedule(now_ + Hours(p.maintenance_hours),
                        Pack(kMaintenanceEnd, s));
        break;
      case kMaintenanceEnd:
        site.in_maintenance = false;
        if (site.Up()) ScheduleFailure(s);
        queue_.Schedule(now_ + (Days(p.maintenance_interval_days) -
                                Hours(p.maintenance_hours)),
                        Pack(kMaintenanceStart, s));
        break;
    }
    return static_cast<int>(queue_.Size() - before);
  }

  SimTime now() const { return now_; }
  SiteSet LiveSites() const {
    SiteSet live;
    for (SiteId s = 0; s < static_cast<SiteId>(sites_.size()); ++s) {
      if (sites_[static_cast<std::size_t>(s)].Up()) live.Add(s);
    }
    return live;
  }

 private:
  enum Kind : std::uint64_t {
    kFailure = 0,
    kRepair = 1,
    kMaintenanceStart = 2,
    kMaintenanceEnd = 3,
  };
  struct Site {
    Rng rng{0};
    std::uint32_t generation = 0;
    bool failed = false;
    bool in_maintenance = false;
    bool Up() const { return !failed && !in_maintenance; }
  };

  static std::uint64_t Pack(Kind kind, SiteId s,
                            std::uint32_t generation = 0) {
    return kind | (static_cast<std::uint64_t>(s) << 3) |
           (static_cast<std::uint64_t>(generation) << 32);
  }
  bool Cancelled(std::uint64_t payload) const {
    return (payload & 0x7) == kFailure &&
           static_cast<std::uint32_t>(payload >> 32) !=
               sites_[static_cast<std::size_t>((payload >> 3) & 0xFF)]
                   .generation;
  }
  void ScheduleFailure(SiteId s) {
    Site& site = sites_[static_cast<std::size_t>(s)];
    const double ttf = site.rng.NextExponential(
        profiles_[static_cast<std::size_t>(s)].mttf_days);
    queue_.Schedule(now_ + ttf, Pack(kFailure, s, ++site.generation));
  }

  const std::vector<SiteProfile>& profiles_;
  std::vector<Site> sites_;
  CalendarQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t current_ = 0;
};

/// Drives the pop-each-event reference to `horizon`, counting the events
/// that scheduled `follow_ups` follow-ups.
std::vector<Seen> DrivePopEachEvent(const std::vector<SiteProfile>& profiles,
                                    std::uint64_t seed, SimTime horizon,
                                    int follow_ups, int* with_follow_ups) {
  PopEachEventPath reference(profiles, seed);
  std::vector<Seen> seen;
  *with_follow_ups = 0;
  while (reference.Advance(horizon)) {
    if (reference.Apply() == follow_ups) ++*with_follow_ups;
    seen.push_back(Seen{reference.now(), PathEvent::Kind::kNetwork,
                        AccessType::kRead, -1, reference.LiveSites()});
  }
  return seen;
}

TEST(SamplePathTest, EventWithNoFollowUpMatchesPoppingInAdvance) {
  // A repair that lands inside a maintenance window schedules nothing
  // (the failure clock stays stopped until the window ends), so Apply()
  // pops the event Advance() left on the calendar's top. Twelve-hour
  // restarts and a half-day window every two days make that common.
  SiteProfile p = SimpleProfile(3.0, 1.0);
  p.hardware_fraction = 0.0;
  p.restart_minutes = 12.0 * 60.0;
  p.maintenance_interval_days = 2.0;
  p.maintenance_hours = 12.0;
  const std::vector<SiteProfile> profiles(3, p);
  int no_follow_up = 0;
  const std::vector<Seen> reference =
      DrivePopEachEvent(profiles, 23, Years(2), 0, &no_follow_up);
  EXPECT_GT(no_follow_up, 20);
  ASSERT_GT(reference.size(), 1000u);
  EXPECT_EQ(Drive(FailureSpec(testing_util::SingleSegment(3), profiles),
                  SiteSet{0, 1, 2}, 23, Years(2)),
            reference);
}

TEST(SamplePathTest, EventWithTwoFollowUpsMatchesPoppingInAdvance) {
  // A maintenance end on a live site schedules two follow-ups: the
  // restarted failure clock replaces the event on the top, and the next
  // window is a plain Schedule(). Instant restarts also put follow-ups
  // at the very time of the event they replace.
  SiteProfile p = SimpleProfile(4.0, 1.0);
  p.hardware_fraction = 0.5;
  p.restart_minutes = 0.0;
  p.maintenance_interval_days = 3.0;
  p.maintenance_hours = 6.0;
  const std::vector<SiteProfile> profiles(4, p);
  int two_follow_ups = 0;
  const std::vector<Seen> reference =
      DrivePopEachEvent(profiles, 31, Years(2), 2, &two_follow_ups);
  EXPECT_GT(two_follow_ups, 500);
  ASSERT_GT(reference.size(), 2000u);
  EXPECT_EQ(Drive(FailureSpec(testing_util::SingleSegment(4), profiles),
                  SiteSet{0, 1, 2, 3}, 31, Years(2)),
            reference);
}

TEST(SamplePathTest, RepeaterFailuresPartition) {
  // ~140 repeater failures expected in two years; no site ever goes
  // down, so every event is a repeater flip and every other one splits
  // the network.
  std::vector<SiteProfile> profiles(4, SimpleProfile(1e9, 1.0));
  const ExperimentSpec spec =
      FailureSpec(testing_util::TwoPairSegments(), profiles,
                  {RepeaterProfile{"bridge", 5.0, 0.0, 24.0}});
  SamplePath path(spec, SiteSet{0, 1, 2, 3}, 11);
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
  const ExperimentSpec spec = AccessSpec(options);
  SamplePath path(spec, SiteSet{0}, 7);
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

/// Drive(), but after every applied event the accesses or arrivals due
/// before the next calendar event are consumed with DrainWorkload(), the
/// way the batched engine consumes repeated accesses and the solo engine
/// untraced serving arrivals.
std::vector<Seen> DriveDraining(SamplePath& path, SimTime horizon) {
  std::vector<Seen> seen;
  std::uint64_t drained = 0;
  const auto record = [&](SimTime t, AccessType type, SiteId origin) {
    EXPECT_EQ(path.now(), t);
    const PathEvent::Kind kind =
        origin < 0 ? PathEvent::Kind::kAccess : PathEvent::Kind::kArrival;
    seen.push_back(Seen{t, kind, type, origin, path.net().LiveSites()});
    ++drained;
  };
  const auto drain = [&] {
    drained = 0;
    const std::uint64_t reported = path.DrainWorkload(horizon, record);
    EXPECT_EQ(reported, drained);
  };
  drain();  // nothing has happened yet
  while (path.Advance(horizon)) {
    const PathEvent event = path.Apply();
    seen.push_back(Seen{path.now(), event.kind, event.type, event.origin,
                        path.net().LiveSites()});
    drain();
  }
  return seen;
}

/// Steps `spec` event by event and drains a second path of the same
/// seed, each in two horizon chunks (so a drain also stops at a
/// horizon), and requires the same sequence of events.
void ExpectDrainingMatchesStepping(const ExperimentSpec& spec,
                                   SiteSet placement, std::uint64_t seed,
                                   SimTime cut, SimTime horizon,
                                   std::vector<Seen>* expected_out) {
  SamplePath stepped(spec, placement, seed);
  std::vector<Seen> expected = Drive(stepped, cut);
  const std::vector<Seen> tail = Drive(stepped, horizon);
  expected.insert(expected.end(), tail.begin(), tail.end());

  SamplePath drained(spec, placement, seed);
  std::vector<Seen> seen = DriveDraining(drained, cut);
  const std::vector<Seen> rest = DriveDraining(drained, horizon);
  seen.insert(seen.end(), rest.begin(), rest.end());

  ASSERT_EQ(seen.size(), expected.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], expected[i]) << "first difference at event " << i;
  }
  EXPECT_EQ(drained.now(), stepped.now());
  *expected_out = std::move(expected);
}

TEST(SamplePathTest, DrainingYieldsTheSteppedSequence) {
  // The paper network with its maintenance calendar (so cancelled
  // failures sit in the calendar) at 24 accesses a day: a path drained
  // after every event must see the same accesses, with the same times
  // and types, and the same network events as one stepped event by
  // event — in two horizon chunks, so a drain also stops at a horizon.
  auto network = MakePaperNetwork();
  ASSERT_TRUE(network.ok()) << network.status();
  ExperimentSpec spec = FailureSpec(network->topology, network->profiles);
  spec.options.access.enabled = true;
  spec.options.access.rate_per_day = 24.0;
  const SiteSet placement{0, 1, 3, 5, 7};
  for (bool deterministic : {false, true}) {
    spec.options.access.deterministic = deterministic;
    for (std::uint64_t seed : {1ull, 7ull, 4242ull, 20260704ull}) {
      SCOPED_TRACE(testing_util::Cat(
          {"seed ", std::to_string(seed),
           deterministic ? " deterministic" : " poisson"}));
      std::vector<Seen> expected;
      ExpectDrainingMatchesStepping(spec, placement, seed, Days(200.25),
                                    Years(2), &expected);
      std::size_t network_events = 0;
      for (const Seen& e : expected) {
        network_events += e.kind == PathEvent::Kind::kNetwork ? 1 : 0;
      }
      EXPECT_GT(network_events, 100u);
      EXPECT_GT(expected.size(), 17000u);
    }
  }
}

TEST(SamplePathTest, DrainingArrivalsYieldsTheSteppedSequence) {
  // The serving model's open-loop streams on the paper network with its
  // maintenance calendar: one stream per replica, each in its own slot
  // beside the calendar. A path drained after every event must see the
  // same arrivals (times, origins, types) and the same network events
  // between them as one stepped event by event, at every horizon cut.
  auto network = MakePaperNetwork();
  ASSERT_TRUE(network.ok()) << network.status();
  ExperimentSpec spec = FailureSpec(network->topology, network->profiles);
  spec.options.serving = TestServing();
  spec.options.serving.arrival_rate_per_day = 300.0;
  const SiteSet placement{0, 1, 3, 5, 7};
  for (std::uint64_t seed : {1ull, 7ull, 20260704ull}) {
    for (SimTime cut : {Days(0.001), Days(37.3), Days(200.25)}) {
      SCOPED_TRACE(testing_util::Cat(
          {"seed ", std::to_string(seed), " cut ", std::to_string(cut)}));
      std::vector<Seen> expected;
      ExpectDrainingMatchesStepping(spec, placement, seed, cut, Years(1),
                                    &expected);
      std::size_t network_events = 0;
      std::uint64_t per_site[8] = {};
      for (const Seen& e : expected) {
        if (e.kind == PathEvent::Kind::kNetwork) {
          ++network_events;
        } else {
          ASSERT_EQ(e.kind, PathEvent::Kind::kArrival);
          ++per_site[e.origin];
        }
      }
      EXPECT_GT(network_events, 40u);
      EXPECT_GT(expected.size(), 100000u);
      for (SiteId site : placement) EXPECT_GT(per_site[site], 15000u);
    }
  }
}

TEST(SamplePathTest, DrainingWithoutAWorkloadDoesNothing) {
  AccessOptions options;
  options.enabled = false;
  const ExperimentSpec idle_spec = AccessSpec(options);
  SamplePath idle(idle_spec, SiteSet{0}, 3);
  int calls = 0;
  const auto count = [&](SimTime, AccessType, SiteId) { ++calls; };
  EXPECT_EQ(idle.DrainWorkload(Days(100), count), 0u);
  EXPECT_EQ(calls, 0);
  EXPECT_FALSE(idle.Advance(Days(100)));
  // An open-loop path drains its arrivals instead; a horizon before the
  // first one drains nothing and leaves it to Advance().
  ExperimentSpec serving = AccessSpec(AccessOptions{});
  serving.options.serving = TestServing();
  SamplePath open_loop(serving, SiteSet{0}, 3);
  EXPECT_EQ(open_loop.DrainWorkload(0.0, count), 0u);
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(open_loop.Advance(Days(100)));
  EXPECT_EQ(open_loop.Apply().kind, PathEvent::Kind::kArrival);
  EXPECT_GT(open_loop.DrainWorkload(Days(100), count), 8000u);
  EXPECT_FALSE(open_loop.Advance(Days(100)));
}

TEST(SamplePathTest, DisabledAccessGeneratesNothing) {
  AccessOptions options;
  options.enabled = false;
  options.rate_per_day = -5.0;  // ignored when disabled
  const ExperimentSpec spec = AccessSpec(options);
  SamplePath path(spec, SiteSet{0}, 19);
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
