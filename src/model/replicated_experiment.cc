#include "model/replicated_experiment.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "core/registry.h"
#include "model/batched_experiment.h"
#include "obs/async_writer.h"
#include "obs/binary_trace.h"
#include "obs/context.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dynvote {

namespace {

/// Outcome slot for one replication, written by exactly one task and read
/// only after ThreadPool::Wait() — the pool's queue mutex orders the
/// writes before the coordinator's reads.
struct ReplicationSlot {
  Status status;  // OK iff rows is meaningful
  std::vector<PolicyResult> rows;
  std::string trace;  // btrace body when collect_traces
  std::uint64_t trace_events = 0;
  MetricsShard metrics;  // per-replication shard when collect_metrics
};

/// Runs one replication of the experiment on the solo engine with the
/// slot's derived seed (the caller has already decided that no batched
/// plan applies). A caller-supplied spec.obs is never shared across
/// workers — when collection is on, each replication gets a private
/// context (sink into the slot's buffer, metrics into the slot's shard)
/// and spec.obs is replaced; when off, spec.obs is cleared.
ReplicationSlot RunOneReplication(const ExperimentSpec& base,
                                  const ProtocolSetFactory& factory,
                                  std::uint64_t seed, int replication,
                                  const ReplicationOptions& options) {
  ReplicationSlot slot;
  auto protocols = factory();
  if (!protocols.ok()) {
    slot.status = protocols.status();
    return slot;
  }
  ExperimentSpec spec = base;  // private copy; only options.seed differs
  spec.options.seed = seed;

  // The worker records btrace into its private buffer — the one trace
  // encoding in the process; a JSONL --trace-out renders these bodies at
  // the output. Confinement to the worker keeps the determinism contract.
  std::ostringstream trace_out;
  StreamPageSink trace_pages(&trace_out);
  std::optional<BinaryTraceSink> trace_sink;
  ObsContext ctx;
  ctx.replication = replication;
  if (options.collect_traces) ctx.sink = &trace_sink.emplace(&trace_pages);
  if (options.collect_metrics) ctx.metrics = &slot.metrics;
  spec.obs = options.collect_traces || options.collect_metrics ? &ctx
                                                               : nullptr;

  auto rows = RunSoloAvailabilityExperiment(spec, protocols.MoveValue());
  if (!rows.ok()) {
    slot.status = rows.status();
    return slot;
  }
  slot.rows = rows.MoveValue();
  if (trace_sink.has_value()) {
    trace_sink->Flush();  // hand off the final partial page
    if (!trace_sink->ok()) {
      slot.status = Status::Internal("trace collection failed: " +
                                     trace_sink->error());
      return slot;
    }
    slot.trace = std::move(trace_out).str();
    slot.trace_events = trace_sink->total_events();
  }
  return slot;
}

}  // namespace

std::uint64_t ReplicationSeed(std::uint64_t master_seed, int replication) {
  DYNVOTE_CHECK_MSG(replication >= 0, "negative replication index");
  if (replication == 0) return master_seed;
  SplitMix64 mix(master_seed);
  std::uint64_t seed = master_seed;
  for (int r = 0; r < replication; ++r) seed = mix.Next();
  return seed;
}

Result<ReplicatedResults> RunReplicatedExperiment(
    const ExperimentSpec& spec, const ProtocolSetFactory& factory,
    const ReplicationOptions& options, const BatchedProtocolSpec* /*ignored*/) {
  if (options.replications < 1) {
    return Status::InvalidArgument("replications must be >= 1");
  }
  DYNVOTE_RETURN_NOT_OK(ValidateWorkerCount(options.jobs));
  if (options.objects < 1) {
    return Status::InvalidArgument("objects must be >= 1");
  }
  if (!factory) {
    return Status::InvalidArgument("replicated experiment needs a factory");
  }

  const int reps = options.replications;
  ReplicatedResults out;
  out.seeds.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    out.seeds.push_back(ReplicationSeed(spec.options.seed, r));
  }

  // The one engine decision of the run. Collected traces or metrics give
  // every replication an obs context, which keeps it on the solo engine;
  // otherwise BatchedPlanFor is asked once, with the null spec.obs every
  // uncollected replication runs with, on one factory-built set (the
  // factory builds the same set every call).
  ExperimentSpec untraced = spec;
  untraced.obs = nullptr;
  std::optional<BatchedProtocolSpec> plan;
  if (!options.collect_traces && !options.collect_metrics) {
    auto probe = factory();
    if (!probe.ok()) return probe.status();
    plan = BatchedPlanFor(untraced, *probe);
  }

  // One loop over groups of consecutive replications: `objects` of them
  // per batched-engine call with a plan, one solo replication without.
  // Each group writes only its own replications' slots, and the batched
  // engine's rows are bit-identical to solo runs with the same seeds, so
  // neither the grouping nor the job count changes a byte.
  // Written so that no sum can pass INT_MAX (--objects may be INT_MAX).
  const int group_size = plan.has_value() ? options.objects : 1;
  const int num_groups = (reps - 1) / group_size + 1;
  std::vector<ReplicationSlot> slots(static_cast<std::size_t>(reps));
  auto run_group = [&](int g) {
    const int lo = g * group_size;
    const int hi = lo + std::min(group_size, reps - lo);
    if (!plan.has_value()) {
      for (int r = lo; r < hi; ++r) {
        slots[r] = RunOneReplication(spec, factory, out.seeds[r], r, options);
      }
      return;
    }
    std::vector<std::uint64_t> seeds(out.seeds.begin() + lo,
                                     out.seeds.begin() + hi);
    auto rows = RunBatchedAvailabilityExperiment(untraced, *plan, seeds);
    if (!rows.ok()) {
      for (int r = lo; r < hi; ++r) slots[r].status = rows.status();
      return;
    }
    std::vector<std::vector<PolicyResult>> group_rows = rows.MoveValue();
    for (int r = lo; r < hi; ++r) {
      slots[r].rows = std::move(group_rows[static_cast<std::size_t>(r - lo)]);
    }
  };
  const int threads = std::min(
      options.jobs == 0 ? ThreadPool::DefaultThreads() : options.jobs,
      num_groups);
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  ParallelFor(pool.has_value() ? &*pool : nullptr,
              static_cast<std::size_t>(num_groups),
              [&run_group](std::size_t first, std::size_t last) {
                for (std::size_t g = first; g < last; ++g) {
                  run_group(static_cast<int>(g));
                }
              });

  // Errors surface lowest-slot-first so the reported failure does not
  // depend on completion order.
  for (const ReplicationSlot& slot : slots) {
    if (!slot.status.ok()) return slot.status;
  }

  const std::size_t num_policies = slots.front().rows.size();
  for (const ReplicationSlot& slot : slots) {
    if (slot.rows.size() != num_policies) {
      return Status::Internal("replications produced different policy sets");
    }
  }

  out.per_replication.reserve(slots.size());
  if (options.collect_traces) {
    out.traces.reserve(slots.size());
    out.trace_events.reserve(slots.size());
  }
  for (ReplicationSlot& slot : slots) {
    out.per_replication.push_back(std::move(slot.rows));
    // Traces and metrics fold in slot (replication) order, keeping both
    // outputs bit-identical for any job count.
    if (options.collect_traces) {
      out.traces.push_back(std::move(slot.trace));
      out.trace_events.push_back(slot.trace_events);
    }
    if (options.collect_metrics) out.metrics.Merge(slot.metrics);
  }

  out.aggregate.reserve(num_policies);
  for (std::size_t p = 0; p < num_policies; ++p) {
    AggregatePolicyResult agg;
    agg.name = out.per_replication.front()[p].name;
    agg.replications = reps;
    ReplicationStats unavailability;
    ReplicationStats outage_duration;
    ReplicationStats first_outage;
    for (const std::vector<PolicyResult>& rows : out.per_replication) {
      const PolicyResult& r = rows[p];
      if (r.name != agg.name) {
        return Status::Internal("replications produced different policy sets");
      }
      unavailability.Add(r.unavailability);
      if (r.num_unavailable_periods > 0) {
        outage_duration.Add(r.mean_unavailable_duration);
        ++agg.replications_with_outages;
      }
      if (r.time_to_first_outage >= 0.0) {
        first_outage.Add(r.time_to_first_outage);
      } else {
        first_outage.AddCensored();
      }
      agg.accesses_attempted += r.accesses_attempted;
      agg.accesses_granted += r.accesses_granted;
      agg.num_unavailable_periods += r.num_unavailable_periods;
      agg.dual_majority_instants += r.dual_majority_instants;
      for (int k = 0; k < kNumMessageKinds; ++k) {
        MessageKind kind = static_cast<MessageKind>(k);
        agg.messages.Add(kind, r.messages.count(kind));
      }
      agg.measured_days += r.measured_time;
    }
    agg.unavailability = unavailability.Summary();
    agg.mean_outage_duration = outage_duration.Summary();
    agg.time_to_first_outage = first_outage.Summary();
    out.aggregate.push_back(std::move(agg));
  }
  return out;
}

Result<ReplicatedResults> RunReplicatedPaperExperiment(
    char config_label, const std::vector<std::string>& policies,
    const ExperimentOptions& options,
    const ReplicationOptions& replication) {
  auto network = MakePaperNetwork();
  if (!network.ok()) return network.status();

  const PaperConfiguration* config = PaperConfigurationFor(config_label);
  if (config == nullptr) {
    return Status::InvalidArgument(std::string("unknown configuration '") +
                                   config_label + "'");
  }

  // The factory reads only immutable data (topology, placement, names),
  // so concurrent invocation from worker threads is safe.
  ProtocolSetFactory factory = [topology = network->topology,
                                placement = config->placement, &policies] {
    return MakeProtocolSet(policies, topology, placement);
  };

  ExperimentSpec spec;
  spec.topology = network->topology;
  spec.profiles = network->profiles;
  spec.options = options;
  return RunReplicatedExperiment(spec, factory, replication);
}

Result<std::vector<PolicyResult>> RunPaperExperiment(
    char config_label, const std::vector<std::string>& policies,
    const ExperimentOptions& options) {
  auto results = RunReplicatedPaperExperiment(config_label, policies, options,
                                              ReplicationOptions());
  if (!results.ok()) return results.status();
  return std::move(results->per_replication.front());
}

std::vector<PolicyResult> MeanPolicyResults(const ReplicatedResults& results) {
  if (results.per_replication.size() == 1) {
    return results.per_replication.front();
  }
  std::vector<PolicyResult> rows;
  rows.reserve(results.aggregate.size());
  for (const AggregatePolicyResult& agg : results.aggregate) {
    PolicyResult r;
    r.name = agg.name;
    r.unavailability = agg.unavailability.mean;
    // Re-express the cross-replication interval in the BatchStats shape
    // the table printers already know how to render.
    r.stats.num_batches = agg.unavailability.num_samples;
    r.stats.mean = agg.unavailability.mean;
    r.stats.stddev = agg.unavailability.stddev;
    r.stats.ci95_halfwidth = agg.unavailability.ci95_halfwidth;
    r.mean_unavailable_duration = agg.mean_outage_duration.mean;
    r.num_unavailable_periods = agg.num_unavailable_periods;
    r.accesses_attempted = agg.accesses_attempted;
    r.accesses_granted = agg.accesses_granted;
    r.messages = agg.messages;
    r.measured_time = agg.measured_days;
    r.dual_majority_instants = agg.dual_majority_instants;
    r.time_to_first_outage = agg.time_to_first_outage.num_samples > 0
                                 ? agg.time_to_first_outage.mean
                                 : -1.0;
    rows.push_back(std::move(r));
  }
  return rows;
}

}  // namespace dynvote
