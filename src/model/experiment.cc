#include "model/experiment.h"

#include <optional>

#include "core/dynamic_voting.h"
#include "core/registry.h"
#include "model/batched_experiment.h"
#include "model/failure_model.h"
#include "net/network_state.h"
#include "sim/simulator.h"
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
  if (spec.topology == nullptr) {
    return Status::InvalidArgument("experiment needs a topology");
  }
  if (protocols.empty()) {
    return Status::InvalidArgument("experiment needs at least one protocol");
  }
  if (spec.options.num_batches < 1 || spec.options.batch_length <= 0.0 ||
      spec.options.warmup < 0.0) {
    return Status::InvalidArgument("bad measurement window");
  }

  Simulator sim;
  NetworkState net(spec.topology);
  if (spec.obs != nullptr) {
    sim.set_obs(spec.obs);
    net.set_obs(spec.obs);
  }

  auto model_result = NetworkProcessModel::Make(
      &sim, &net, spec.profiles, spec.repeater_profiles, spec.options.seed);
  if (!model_result.ok()) return model_result.status();
  std::unique_ptr<NetworkProcessModel> model = model_result.MoveValue();

  // The workload: the paper's closed-loop single accessor, or — when the
  // serving model is enabled — open-loop Poisson arrivals per replica
  // (the closed-loop process is then not created at all, so accesses
  // originate solely from the arrival streams).
  std::unique_ptr<AccessProcess> access;
  std::unique_ptr<OpenLoopProcess> open_loop;
  const bool serving = spec.options.serving.enabled;
  // Arrivals target every replica any observed protocol placed — for the
  // paper configurations the protocols share one placement, so this is
  // simply that placement.
  SiteSet arrival_sites;
  for (const auto& p : protocols) {
    arrival_sites = arrival_sites.Union(p->placement());
  }
  if (serving) {
    auto open_result = OpenLoopProcess::Make(
        &sim, arrival_sites, spec.options.serving,
        spec.options.seed ^ 0x6C8E9CF570932BD5ULL);
    if (!open_result.ok()) return open_result.status();
    open_loop = open_result.MoveValue();
  } else {
    auto access_result =
        AccessProcess::Make(&sim, spec.options.access, spec.options.seed ^
                                                            0x5DEECE66DULL);
    if (!access_result.ok()) return access_result.status();
    access = access_result.MoveValue();
  }

  const SimTime start = spec.options.warmup;
  const SimTime horizon =
      start + spec.options.batch_length * spec.options.num_batches;

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
        /*serving=*/nullptr});
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

  // Availability sampling shared by both event kinds. Each protocol's
  // grant decision is evaluated per group of communicating sites, which
  // also lets us assert the at-most-one-majority-partition invariant.
  auto sample = [&]() {
    const std::vector<SiteSet>& groups = net.Components();
    for (Observed& obs : observed) {
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
          std::string detail = obs.protocol->name() + " at t=" +
                               std::to_string(sim.Now()) + " groups:";
          for (const SiteSet& group : groups) {
            detail += " " + group.ToString();
          }
          if (auto* dv = dynamic_cast<DynamicVoting*>(obs.protocol)) {
            for (SiteId s : dv->placement()) {
              detail += "\n  site " + std::to_string(s) + ": " +
                        dv->store().state(s).ToString();
            }
          }
          DYNVOTE_CHECK_MSG(granted_groups <= 1,
                            "two disjoint majority partitions: " + detail);
        }
      }
      obs.tracker.Update(sim.Now(), granted_groups > 0);
    }
  };

  model->set_on_change([&]() {
    for (Observed& obs : observed) {
      obs.protocol->OnNetworkEvent(net);
      if (obs.serving != nullptr) {
        // Connection-vector refresh traffic lands in the refresh phase;
        // everything counted between arrivals is background cost.
        obs.serving->AttributeMessages(*obs.protocol->counter(),
                                       ServingStage::Phase::kRefresh);
      }
    }
    sample();
  });

  if (access != nullptr) {
    access->set_callback([&](AccessType type) {
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
    });
  }

  if (open_loop != nullptr) {
    open_loop->set_callback([&](SiteId origin, AccessType type) {
      const double now = sim.Now();
      const bool origin_up = net.IsSiteUp(origin);
      for (Observed& obs : observed) {
        ServingStage& stage = *obs.serving;
        if (!origin_up) {
          // The user's front-end replica is down: nothing to queue at.
          stage.OnRejected();
          continue;
        }
        ++obs.attempted;
        Status st = obs.protocol->UserAccess(net, type);
        if (st.ok()) {
          ++obs.granted;
        } else {
          DYNVOTE_CHECK_MSG(st.IsNoQuorum(),
                            "unexpected access failure: " + st.ToString());
        }
        const std::uint64_t msgs = stage.AttributeMessages(
            *obs.protocol->counter(), ServingStage::Phase::kAccess);
        ServingStage::Outcome outcome =
            stage.OnArrival(now, origin, msgs, st.ok());
        if (spec.obs != nullptr && spec.obs->sink != nullptr) {
          TraceEvent event;
          event.type = TraceEventType::kServing;
          event.t = spec.obs->now;
          event.replication = spec.obs->replication;
          event.seq = spec.obs->seq;
          event.protocol = obs.protocol->name();
          event.write = type == AccessType::kWrite;
          event.origin = origin;
          event.granted = st.ok();
          event.latency_ms = outcome.latency_ms;
          event.msgs = static_cast<std::uint32_t>(msgs);
          event.depth = outcome.depth;
          spec.obs->sink->Write(event);
        }
      }
      sample();
    });
  }

  model->Start();
  if (access != nullptr) access->Start();
  if (open_loop != nullptr) open_loop->Start();
  DYNVOTE_RETURN_NOT_OK(sim.RunUntil(horizon));

  std::vector<PolicyResult> results;
  results.reserve(observed.size());
  for (Observed& obs : observed) {
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

Result<std::vector<PolicyResult>> RunPaperExperiment(
    char config_label, const std::vector<std::string>& policies,
    const ExperimentOptions& options) {
  auto network = MakePaperNetwork();
  if (!network.ok()) return network.status();

  const PaperConfiguration* config = nullptr;
  for (const PaperConfiguration& c : PaperConfigurations()) {
    if (c.label == config_label) config = &c;
  }
  if (config == nullptr) {
    return Status::InvalidArgument(std::string("unknown configuration '") +
                                   config_label + "'");
  }

  std::vector<std::unique_ptr<ConsistencyProtocol>> protocols;
  for (const std::string& name : policies) {
    auto p = MakeProtocolByName(name, network->topology, config->placement);
    if (!p.ok()) return p.status();
    protocols.push_back(p.MoveValue());
  }

  ExperimentSpec spec;
  spec.topology = network->topology;
  spec.profiles = network->profiles;
  spec.options = options;
  return RunAvailabilityExperiment(spec, std::move(protocols));
}

}  // namespace dynvote
