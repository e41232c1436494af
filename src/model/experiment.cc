#include "model/experiment.h"

#include <optional>

#include "core/dynamic_voting.h"
#include "model/arrival_drain.h"
#include "model/batched_experiment.h"
#include "model/sample_path.h"
#include "net/network_state.h"
#include "obs/binary_trace.h"
#include "stats/tracker.h"
#include "util/logging.h"

namespace dynvote {

namespace {

/// One protocol under observation.
struct Observed {
  ConsistencyProtocol* protocol;
  AvailabilityTracker tracker;
  std::uint64_t attempted = 0;
  std::uint64_t granted = 0;
  std::uint64_t dual_majority_instants = 0;
  /// Serving-model bookkeeping; null unless options.serving.enabled.
  std::unique_ptr<ServingStage> serving;
  /// Replays this protocol's reactions to arrivals (untraced serving
  /// runs only; see model/arrival_drain.h).
  ArrivalDrain drain;
};

/// The observability side of event dispatch. Before each live event is
/// applied, stamps `obs->now`/`obs->seq` (so downstream emitters —
/// NetworkState, protocols, trackers — timestamp without knowing the
/// clock), emits one `dispatch` record and bumps the `sim_events`
/// counter. Sequence numbers count live events from 0; cancelled
/// failures never reach it.
class DispatchStamp {
 public:
  explicit DispatchStamp(ObsContext* obs) : obs_(obs) {}

  void Stamp(SimTime now) {
    obs_->now = now;
    obs_->seq = seq_;
    if (obs_->sink != nullptr) {
      TraceSink* sink = obs_->sink;
      // Devirtualized fast path, as in the protocol emitters.
      if (label_.BinaryHit(sink)) {
        static_cast<BinaryTraceSink*>(sink)->EncodeSim(
            now, seq_, obs_->replication, label_.id);
      } else {
        sink->WriteSim(now, seq_, obs_->replication, "dispatch",
                       label_.Resolve(sink, "dispatch"));
      }
    }
    if (obs_->metrics != nullptr) ++*SimEventsCell();
    ++seq_;
  }

  /// Counts `n` live events that ran without a stamp — drained arrivals,
  /// which nothing untraced timestamps: they take sequence numbers and
  /// count into `sim_events` as stamped ones do.
  void Count(std::uint64_t n) {
    if (n == 0) return;
    if (obs_->metrics != nullptr) *SimEventsCell() += n;
    seq_ += n;
  }

 private:
  std::uint64_t* SimEventsCell() {
    MetricsShard* shard = obs_->metrics;
    // One map walk per (shard, epoch) instead of one per event.
    if (shard != cell_shard_ || cell_epoch_ != shard->cell_epoch()) {
      cell_shard_ = shard;
      cell_epoch_ = shard->cell_epoch();
      sim_events_cell_ = shard->CounterCell("sim_events");
    }
    return sim_events_cell_;
  }

  ObsContext* obs_;
  std::uint64_t seq_ = 0;
  TraceLabelCache label_;  // the sink's token for "dispatch"
  MetricsShard* cell_shard_ = nullptr;
  std::uint64_t cell_epoch_ = 0;
  std::uint64_t* sim_events_cell_ = nullptr;
};

}  // namespace

Result<std::vector<PolicyResult>> RunAvailabilityExperiment(
    const ExperimentSpec& spec,
    std::vector<std::unique_ptr<ConsistencyProtocol>> protocols) {
  if (std::optional<BatchedProtocolSpec> plan =
          BatchedPlanFor(spec, protocols)) {
    auto rows =
        RunBatchedAvailabilityExperiment(spec, *plan, {spec.options.seed});
    if (!rows.ok()) return rows.status();
    return std::move(rows.MoveValue().front());
  }
  return RunSoloAvailabilityExperiment(spec, std::move(protocols));
}

Result<std::vector<PolicyResult>> RunSoloAvailabilityExperiment(
    const ExperimentSpec& spec,
    std::vector<std::unique_ptr<ConsistencyProtocol>> protocols) {
  if (protocols.empty()) {
    return Status::InvalidArgument("experiment needs at least one protocol");
  }
  // The workload: the paper's closed-loop single accessor, or — when the
  // serving model is enabled — open-loop Poisson arrivals per replica.
  // Arrivals target every replica any observed protocol placed; for the
  // paper configurations the protocols share one placement, so this is
  // simply that placement.
  const bool serving = spec.options.serving.enabled;
  SiteSet arrival_sites;
  for (const auto& p : protocols) {
    arrival_sites = arrival_sites.Union(p->placement());
  }
  DYNVOTE_RETURN_NOT_OK(SamplePath::Validate(spec, arrival_sites));

  SamplePath path(spec, arrival_sites, spec.options.seed);
  NetworkState& net = path.net();
  if (spec.obs != nullptr) net.set_obs(spec.obs);

  const SimTime start = spec.options.warmup;
  const SimTime horizon =
      start + spec.options.batch_length * spec.options.num_batches;

  // A trace records every decision, so traced runs step every arrival;
  // they are the reference the drained runs are tested against.
  const bool drain =
      serving && (spec.obs == nullptr || spec.obs->sink == nullptr);
  std::vector<Observed> observed;
  observed.reserve(protocols.size());
  for (auto& p : protocols) {
    p->set_quorum_cache_enabled(spec.options.quorum_cache);
    if (spec.obs != nullptr) p->set_obs(spec.obs);
    observed.push_back(Observed{
        p.get(),
        AvailabilityTracker(start, spec.options.batch_length,
                            spec.options.num_batches),
        /*attempted=*/0, /*granted=*/0, /*dual_majority_instants=*/0,
        /*serving=*/nullptr, ArrivalDrain(p.get(), drain)});
    if (spec.obs != nullptr) {
      observed.back().tracker.set_obs(spec.obs, p->name());
    }
    if (serving) {
      // Queue slots are indexed by raw SiteId; RankMin() is the highest
      // id in the set (the paper ranks low ids high).
      observed.back().serving = std::make_unique<ServingStage>(
          p->name(), spec.options.serving, arrival_sites.RankMin() + 1);
    }
  }

  // Availability sampling shared by every event kind. Each protocol's
  // grant decision is evaluated per group of communicating sites, which
  // also lets us assert the at-most-one-majority-partition invariant.
  // Returns the number of granted groups.
  auto sample_one = [&](Observed& obs) {
    const std::vector<SiteSet>& groups = net.Components();
    int granted_groups = 0;
    for (const SiteSet& group : groups) {
      SiteSet copies = group.Intersect(obs.protocol->placement());
      if (copies.Empty()) continue;
      if (obs.protocol->CachedWouldGrant(net, copies.RankMax(),
                                         AccessType::kWrite)) {
        ++granted_groups;
      }
    }
    if (granted_groups > 1) {
      // Two disjoint groups are simultaneously granted. For the
      // partition-safe protocols this is a library bug and fatal; for
      // the topological variants it is a documented hazard of the
      // published algorithm (see DynamicVoting::partition_safe) that we
      // count and report.
      ++obs.dual_majority_instants;
      if (spec.options.check_mutual_exclusion &&
          obs.protocol->partition_safe()) {
        // Appended piece by piece: a `"literal" + std::string` temporary
        // here trips GCC 12's -Wrestrict false positive in Release builds.
        std::string detail = obs.protocol->name();
        detail += " at t=";
        detail += std::to_string(path.now());
        detail += " groups:";
        for (const SiteSet& group : groups) {
          detail += ' ';
          detail += group.ToString();
        }
        if (auto* dv = dynamic_cast<DynamicVoting*>(obs.protocol)) {
          for (SiteId s : dv->placement()) {
            detail += "\n  site ";
            detail += std::to_string(s);
            detail += ": ";
            detail += dv->store().state(s).ToString();
          }
        }
        DYNVOTE_CHECK_MSG(granted_groups <= 1,
                          "two disjoint majority partitions: " + detail);
      }
    }
    obs.tracker.Update(path.now(), granted_groups > 0);
    return granted_groups;
  };
  auto sample = [&]() {
    for (Observed& obs : observed) sample_one(obs);
  };

  // The engine's reactions read the network and drive the protocols;
  // none draws from the path's generators or schedules an event.
  auto on_network_event = [&]() {
    for (Observed& obs : observed) {
      if (obs.serving != nullptr) obs.drain.EndInterval(*obs.serving);
      obs.protocol->OnNetworkEvent(net);
      if (obs.serving != nullptr) {
        // Connection-vector refresh traffic lands in the refresh phase;
        // everything counted between arrivals is background cost.
        obs.serving->AttributeMessages(*obs.protocol->counter(),
                                       ServingStage::Phase::kRefresh);
      }
    }
    sample();
  };

  auto on_access = [&](AccessType type) {
    for (Observed& obs : observed) {
      ++obs.attempted;
      Status st = obs.protocol->UserAccess(net, type);
      if (st.ok()) {
        ++obs.granted;
      } else {
        DYNVOTE_CHECK_MSG(st.IsNoQuorum(),
                          "unexpected access failure: " + st.ToString());
      }
    }
    sample();
  };

  // One served arrival's access for one protocol: run it, attribute its
  // messages, and queue it at the origin replica.
  struct Served {
    bool granted;
    std::uint64_t msgs;
    ServingStage::Outcome outcome;
  };
  auto serve_one = [&](Observed& obs, double now, SiteId origin,
                       AccessType type) {
    ++obs.attempted;
    Status st = obs.protocol->UserAccess(net, type);
    if (st.ok()) {
      ++obs.granted;
    } else {
      DYNVOTE_CHECK_MSG(st.IsNoQuorum(),
                        "unexpected access failure: " + st.ToString());
    }
    const std::uint64_t msgs = obs.serving->AttributeMessages(
        *obs.protocol->counter(), ServingStage::Phase::kAccess);
    return Served{st.ok(), msgs,
                  obs.serving->OnArrival(now, origin, msgs, st.ok())};
  };

  // A traced arrival: every protocol runs and records its serving event,
  // then the sample runs over all of them, in the order the trace keeps.
  auto on_arrival_traced = [&](SiteId origin, AccessType type) {
    const double now = path.now();
    const bool origin_up = net.IsSiteUp(origin);
    for (Observed& obs : observed) {
      ServingStage& stage = *obs.serving;
      if (!origin_up) {
        // The user's front-end replica is down: nothing to queue at.
        stage.OnRejected();
        continue;
      }
      const Served served = serve_one(obs, now, origin, type);
      TraceEvent event;
      event.type = TraceEventType::kServing;
      event.t = spec.obs->now;
      event.replication = spec.obs->replication;
      event.seq = spec.obs->seq;
      event.protocol = obs.protocol->name();
      event.write = type == AccessType::kWrite;
      event.origin = origin;
      event.granted = served.granted;
      event.latency_ms = served.outcome.latency_ms;
      event.msgs = static_cast<std::uint32_t>(served.msgs);
      event.depth = served.outcome.depth;
      spec.obs->sink->Write(event);
    }
    sample();
  };

  // An untraced arrival, drained: each protocol replays the reaction it
  // learned for this input from its memo state, or runs for real and
  // learns it. Protocols are independent, so each one's access and
  // sample run together.
  auto on_arrival = [&](SiteId origin, AccessType type) {
    const double now = path.now();
    const bool origin_up = net.IsSiteUp(origin);
    const ArrivalInput input = !origin_up ? ArrivalInput::kRejected
                               : type == AccessType::kWrite
                                   ? ArrivalInput::kWrite
                                   : ArrivalInput::kRead;
    for (Observed& obs : observed) {
      ServingStage& stage = *obs.serving;
      if (const ArrivalReaction* r = obs.drain.TryReplay(input)) {
        if (origin_up) {
          ++obs.attempted;
          if (r->step.granted) ++obs.granted;
          stage.OnArrival(now, origin, r->step.msgs, r->step.granted);
        } else {
          stage.OnRejected();
        }
        if (r->step.granted_groups > 1) ++obs.dual_majority_instants;
        obs.tracker.Update(now, r->step.granted_groups > 0);
        continue;
      }
      obs.drain.RunReal(input, stage, [&] {
        ArrivalStep step;
        if (origin_up) {
          const Served served = serve_one(obs, now, origin, type);
          step.granted = served.granted;
          step.msgs = served.msgs;
        } else {
          stage.OnRejected();
        }
        step.granted_groups = sample_one(obs);
        return step;
      });
    }
  };

  std::optional<DispatchStamp> stamp;
  if (spec.obs != nullptr) stamp.emplace(spec.obs);
  while (path.Advance(horizon)) {
    if (stamp.has_value()) stamp->Stamp(path.now());
    const PathEvent event = path.Apply();
    switch (event.kind) {
      case PathEvent::Kind::kNetwork:
        on_network_event();
        break;
      case PathEvent::Kind::kAccess:
        on_access(event.type);
        break;
      case PathEvent::Kind::kArrival:
        if (drain) {
          on_arrival(event.origin, event.type);
        } else {
          on_arrival_traced(event.origin, event.type);
        }
        break;
    }
    if (drain) {
      // The arrivals up to the next network event, off the calendar.
      const std::uint64_t drained = path.DrainWorkload(
          horizon, [&](SimTime, AccessType type, SiteId origin) {
            on_arrival(origin, type);
          });
      if (stamp.has_value()) stamp->Count(drained);
    }
  }

  std::vector<PolicyResult> results;
  results.reserve(observed.size());
  for (Observed& obs : observed) {
    if (obs.serving != nullptr) obs.drain.EndInterval(*obs.serving);
    obs.tracker.Finish(horizon);
    PolicyResult r;
    r.name = obs.protocol->name();
    r.unavailability = obs.tracker.Unavailability();
    r.stats = obs.tracker.Stats();
    r.mean_unavailable_duration = obs.tracker.MeanUnavailableDuration();
    r.num_unavailable_periods = obs.tracker.NumUnavailablePeriods();
    r.accesses_attempted = obs.attempted;
    r.accesses_granted = obs.granted;
    r.messages = *obs.protocol->counter();
    r.measured_time = obs.tracker.TotalTime();
    r.dual_majority_instants = obs.dual_majority_instants;
    r.time_to_first_outage = obs.tracker.TimeToFirstOutage();
    if (obs.serving != nullptr && spec.obs != nullptr) {
      obs.serving->Finish(spec.obs->metrics);
    }
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace dynvote
