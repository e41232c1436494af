#include "model/sample_path.h"

#include <cmath>

#include "model/experiment.h"
#include "util/logging.h"

namespace dynvote {

Status SamplePath::Validate(const ExperimentSpec& spec,
                            SiteSet arrival_sites) {
  if (spec.topology == nullptr) {
    return Status::InvalidArgument("experiment needs a topology");
  }
  const ExperimentOptions& o = spec.options;
  if (o.num_batches < 1 || o.batch_length <= 0.0 || o.warmup < 0.0 ||
      !std::isfinite(o.warmup + o.batch_length * o.num_batches)) {
    return Status::InvalidArgument("bad measurement window");
  }
  if (static_cast<int>(spec.profiles.size()) != spec.topology->num_sites()) {
    return Status::InvalidArgument("need one SiteProfile per site");
  }
  if (static_cast<int>(spec.repeater_profiles.size()) !=
      spec.topology->num_repeaters()) {
    return Status::InvalidArgument("need one RepeaterProfile per repeater");
  }
  for (const SiteProfile& p : spec.profiles) {
    if (p.mttf_days <= 0.0) {
      return Status::InvalidArgument("site MTTF must be > 0");
    }
    if (p.hardware_fraction < 0.0 || p.hardware_fraction > 1.0) {
      return Status::InvalidArgument("hardware fraction outside [0, 1]");
    }
  }
  for (const RepeaterProfile& p : spec.repeater_profiles) {
    if (p.mttf_days <= 0.0) {
      return Status::InvalidArgument("repeater MTTF must be > 0");
    }
  }
  if (o.serving.enabled) {
    // The open-loop arrivals replace the closed-loop accessor, whose
    // options then go unread.
    if (arrival_sites.Empty()) {
      return Status::InvalidArgument("open-loop traffic needs arrival sites");
    }
    if (o.serving.arrival_rate_per_day <= 0.0) {
      return Status::InvalidArgument("arrival rate must be > 0");
    }
    if (o.serving.service_time_ms < 0.0 || o.serving.msg_cost_ms < 0.0) {
      return Status::InvalidArgument("service costs must be >= 0");
    }
    if (o.serving.write_fraction < 0.0 || o.serving.write_fraction > 1.0) {
      return Status::InvalidArgument("write fraction outside [0, 1]");
    }
    return Status::OK();
  }
  if (o.access.enabled && o.access.rate_per_day <= 0.0) {
    return Status::InvalidArgument("access rate must be > 0");
  }
  if (o.access.write_fraction < 0.0 || o.access.write_fraction > 1.0) {
    return Status::InvalidArgument("write fraction outside [0, 1]");
  }
  return Status::OK();
}

SamplePath::SamplePath(const ExperimentSpec& spec, SiteSet arrival_sites,
                       std::uint64_t seed)
    : profiles_(spec.profiles),
      repeater_profiles_(spec.repeater_profiles),
      access_(spec.options.access),
      serving_(spec.options.serving),
      net_(spec.topology),
      sites_(spec.profiles.size()),
      access_rng_(seed ^ 0x5DEECE66DULL) {
  Rng master(seed);
  for (SiteSlot& site : sites_) site.rng = master.Split();
  repeater_rngs_.reserve(repeater_profiles_.size());
  for (std::size_t r = 0; r < repeater_profiles_.size(); ++r) {
    repeater_rngs_.push_back(master.Split());
  }

  for (SiteId s = 0; s < static_cast<SiteId>(sites_.size()); ++s) {
    ScheduleSiteFailure(s);
    const SiteProfile& p = profiles_[static_cast<std::size_t>(s)];
    if (p.maintenance_interval_days > 0.0 && p.maintenance_hours > 0.0) {
      // Stagger the first window uniformly over one interval: operators do
      // not service every machine at the same instant, and synchronised
      // windows would manufacture simultaneous multi-site outages that the
      // paper's testbed model does not exhibit.
      const double phase =
          sites_[static_cast<std::size_t>(s)].rng.NextDouble() *
          p.maintenance_interval_days;
      ScheduleAt(Days(phase), Pack(EventKind::kMaintenanceStart, s));
    }
  }
  for (int r = 0; r < static_cast<int>(repeater_rngs_.size()); ++r) {
    ScheduleRepeaterFailure(r);
  }

  if (serving_.enabled) {
    // One generator per stream, expanded from the seed in site order: the
    // draws a site sees depend only on the seed and the site set.
    SplitMix64 mix(seed ^ 0x6C8E9CF570932BD5ULL);
    streams_.reserve(static_cast<std::size_t>(arrival_sites.Size()));
    for (SiteId site : arrival_sites) {
      streams_.push_back(ArrivalStream{site, Rng(mix.Next())});
    }
    per_stream_rate_ =
        serving_.arrival_rate_per_day / static_cast<double>(streams_.size());
    for (std::size_t i = 0; i < streams_.size(); ++i) ScheduleArrival(i);
  } else if (access_.enabled) {
    ScheduleAccess();
  }
}

void SamplePath::ScheduleIn(SimTime delay, std::uint64_t payload) {
  DYNVOTE_CHECK_MSG(delay >= 0.0 && std::isfinite(delay),
                    "event delay must be finite and non-negative");
  queue_.Schedule(now_ + delay, payload);
}

void SamplePath::ScheduleAt(SimTime when, std::uint64_t payload) {
  DYNVOTE_CHECK_MSG(when >= now_ && std::isfinite(when),
                    "event time must be finite and not in the past");
  queue_.Schedule(when, payload);
}

PathEvent SamplePath::Apply() {
  const int entity = EntityOf(current_);
  switch (KindOf(current_)) {
    case EventKind::kSiteFailure:
      OnSiteFailure(entity);
      break;
    case EventKind::kSiteRepair:
      OnSiteRepair(entity);
      break;
    case EventKind::kMaintenanceStart:
      OnMaintenanceStart(entity);
      break;
    case EventKind::kMaintenanceEnd:
      OnMaintenanceEnd(entity);
      break;
    case EventKind::kRepeaterFailure:
      OnRepeaterFailure(entity);
      break;
    case EventKind::kRepeaterRepair:
      OnRepeaterRepair(entity);
      break;
    case EventKind::kAccess:
      return PathEvent{PathEvent::Kind::kAccess, OnAccess()};
    case EventKind::kArrival: {
      // Draw order: access type, then the next gap.
      ArrivalStream& stream = streams_[static_cast<std::size_t>(entity)];
      const AccessType type = stream.rng.NextBernoulli(serving_.write_fraction)
                                  ? AccessType::kWrite
                                  : AccessType::kRead;
      ScheduleArrival(static_cast<std::size_t>(entity));
      return PathEvent{PathEvent::Kind::kArrival, type, stream.site};
    }
  }
  return PathEvent{};
}

// --- site failure, repair and maintenance --------------------------------

void SamplePath::ScheduleSiteFailure(SiteId s) {
  SiteSlot& slot = sites_[static_cast<std::size_t>(s)];
  const double ttf = slot.rng.NextExponential(
      profiles_[static_cast<std::size_t>(s)].mttf_days);
  ScheduleIn(ttf, Pack(EventKind::kSiteFailure, s, ++slot.failure_generation));
}

void SamplePath::PublishSite(SiteId s) {
  // Every publish is reported, even when the effective up state did not
  // flip (a failure during maintenance).
  net_.SetSiteUp(s, sites_[static_cast<std::size_t>(s)].EffectiveUp());
}

void SamplePath::OnSiteFailure(SiteId s) {
  SiteSlot& slot = sites_[static_cast<std::size_t>(s)];
  slot.failed = true;
  PublishSite(s);

  const SiteProfile& p = profiles_[static_cast<std::size_t>(s)];
  SimTime repair;
  if (slot.rng.NextBernoulli(p.hardware_fraction)) {
    repair = Hours(p.hw_repair_const_hours);
    if (p.hw_repair_exp_hours > 0.0) {
      repair += Hours(slot.rng.NextExponential(p.hw_repair_exp_hours));
    }
  } else {
    repair = Minutes(p.restart_minutes);
  }
  ScheduleIn(repair, Pack(EventKind::kSiteRepair, s));
}

void SamplePath::OnSiteRepair(SiteId s) {
  SiteSlot& slot = sites_[static_cast<std::size_t>(s)];
  slot.failed = false;
  PublishSite(s);
  if (slot.EffectiveUp()) ScheduleSiteFailure(s);
}

void SamplePath::OnMaintenanceStart(SiteId s) {
  SiteSlot& slot = sites_[static_cast<std::size_t>(s)];
  slot.in_maintenance = true;
  // The machine is powered down: stop the failure clock by staling the
  // pending failure. Exponential lifetimes are memoryless, so drawing a
  // fresh one at maintenance end is distributionally identical.
  ++slot.failure_generation;
  PublishSite(s);
  ScheduleIn(Hours(profiles_[static_cast<std::size_t>(s)].maintenance_hours),
             Pack(EventKind::kMaintenanceEnd, s));
}

void SamplePath::OnMaintenanceEnd(SiteId s) {
  SiteSlot& slot = sites_[static_cast<std::size_t>(s)];
  slot.in_maintenance = false;
  PublishSite(s);
  if (slot.EffectiveUp()) ScheduleSiteFailure(s);
  // Maintenance follows a fixed calendar: the next window one interval
  // after this one began. The offset is formed first and then added to
  // now; (now + interval) - duration rounds differently and would drift
  // the calendar by an ulp now and then.
  const SiteProfile& p = profiles_[static_cast<std::size_t>(s)];
  ScheduleIn(Days(p.maintenance_interval_days) - Hours(p.maintenance_hours),
             Pack(EventKind::kMaintenanceStart, s));
}

// --- repeaters -------------------------------------------------------------

void SamplePath::ScheduleRepeaterFailure(int r) {
  Rng& rng = repeater_rngs_[static_cast<std::size_t>(r)];
  const double ttf = rng.NextExponential(
      repeater_profiles_[static_cast<std::size_t>(r)].mttf_days);
  ScheduleIn(ttf, Pack(EventKind::kRepeaterFailure, r));
}

void SamplePath::OnRepeaterFailure(int r) {
  net_.SetRepeaterUp(r, false);
  const RepeaterProfile& p = repeater_profiles_[static_cast<std::size_t>(r)];
  Rng& rng = repeater_rngs_[static_cast<std::size_t>(r)];
  SimTime repair = Hours(p.repair_const_hours);
  if (p.repair_exp_hours > 0.0) {
    repair += Hours(rng.NextExponential(p.repair_exp_hours));
  }
  ScheduleIn(repair, Pack(EventKind::kRepeaterRepair, r));
}

void SamplePath::OnRepeaterRepair(int r) {
  net_.SetRepeaterUp(r, true);
  ScheduleRepeaterFailure(r);
}

// --- workload --------------------------------------------------------------

void SamplePath::ScheduleAccess() {
  const double gap =
      access_.deterministic
          ? 1.0 / access_.rate_per_day
          : access_rng_.NextExponential(1.0 / access_.rate_per_day);
  ScheduleIn(gap, Pack(EventKind::kAccess, 0));
}

AccessType SamplePath::OnAccess() {
  // Draw order: access type, then the next gap.
  const AccessType type = access_rng_.NextBernoulli(access_.write_fraction)
                              ? AccessType::kWrite
                              : AccessType::kRead;
  ScheduleAccess();
  return type;
}

void SamplePath::ScheduleArrival(std::size_t stream) {
  ScheduleIn(streams_[stream].rng.NextExponential(1.0 / per_stream_rate_),
             Pack(EventKind::kArrival, static_cast<int>(stream)));
}

}  // namespace dynvote
