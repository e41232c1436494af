// The multi-replication experiment engine. One RunAvailabilityExperiment
// call observes every protocol over a single sample path (common random
// numbers); this layer runs R *independent* replications of that
// experiment — each with its own deterministically derived seed — across
// a fixed-size thread pool, and aggregates the per-protocol results into
// cross-replication means with 95 % confidence intervals.
//
// Determinism contract: the output is a pure function of (spec, factory,
// replications). The job count only changes wall-clock time — results are
// bit-identical for any `jobs` value because every replication writes
// into its own pre-assigned slot and aggregation walks the slots in
// replication order. Replication 0 runs with the master seed itself, so
// `replications = 1` reproduces the sequential RunAvailabilityExperiment
// byte for byte.
//
// Threading model: each replication (a batched group: each of its objects)
// owns a private SamplePath, NetworkState and protocol set or replica
// stores, all confined to the worker thread that runs it (the
// single-thread confinement documented in core/protocol.h is preserved
// per-replication). Only the immutable ExperimentSpec is shared.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "model/batched_experiment.h"
#include "model/experiment.h"
#include "obs/metrics.h"
#include "repl/message_bus.h"
#include "stats/replication_stats.h"
#include "util/result.h"

namespace dynvote {

/// Selects nothing: collected traces are always dynvote-btrace-v1, and
/// JSONL is rendered from them at the output. Kept declared for callers
/// that still set ReplicationOptions::trace_format.
enum class TraceFormat {
  kJsonl,
  kBinary,
};

/// How many replications to run and how wide to fan out.
struct ReplicationOptions {
  /// Number of independent replications (>= 1).
  int replications = 1;
  /// Worker threads; 1 = run inline on the calling thread, 0 = one per
  /// hardware thread. Never affects results, only wall-clock time.
  int jobs = 1;
  /// Collect a trace per replication into ReplicatedResults::traces.
  /// Each worker writes into its own buffer (never a shared sink), so
  /// traces are bit-identical for any `jobs` value — as are the
  /// statistical outputs, which tracing never perturbs.
  bool collect_traces = false;
  /// Ignored: collected bodies are always btrace (see TraceFormat).
  TraceFormat trace_format = TraceFormat::kJsonl;
  /// Collect metrics into per-replication shards, merged in replication
  /// order into ReplicatedResults::metrics at join.
  bool collect_metrics = false;
  /// Replications per batched-engine call (never changes results). The
  /// engine is decided once per replicated run, by BatchedPlanFor, and
  /// not by this value: when the run qualifies for the batched engine
  /// (untraced, unmetered, stock paper policies), replications go to it
  /// in consecutive groups of this size, one call per group (at 1, a
  /// batch of one each); otherwise every replication runs alone on the
  /// solo engine and this is unused. The batched engine's bit-identity
  /// contract makes every grouping produce the same bytes, so only
  /// wall-clock time can change.
  int objects = 1;
};

/// Cross-replication aggregate for one protocol.
struct AggregatePolicyResult {
  std::string name;
  int replications = 0;
  /// Mean + CI of the per-replication unavailability fractions.
  ReplicationSummary unavailability;
  /// Mean + CI of the per-replication mean outage durations, over the
  /// replications that had at least one outage.
  ReplicationSummary mean_outage_duration;
  int replications_with_outages = 0;
  /// Mean + CI of time-to-first-outage (days from measurement start),
  /// over the replications where an outage occurred. Replications whose
  /// file never became unavailable are right-censored at the horizon and
  /// tracked in the summary's num_censored — never averaged in as if the
  /// outage had happened at the horizon.
  ReplicationSummary time_to_first_outage;
  /// Totals summed over all replications.
  std::uint64_t accesses_attempted = 0;
  std::uint64_t accesses_granted = 0;
  std::uint64_t num_unavailable_periods = 0;
  std::uint64_t dual_majority_instants = 0;
  MessageCounter messages;
  double measured_days = 0.0;
};

/// Everything a replicated run produces.
struct ReplicatedResults {
  /// per_replication[r][p]: protocol p's result in replication r.
  std::vector<std::vector<PolicyResult>> per_replication;
  /// aggregate[p]: protocol p across all replications.
  std::vector<AggregatePolicyResult> aggregate;
  /// The seed each replication ran with (seeds[0] == the master seed).
  std::vector<std::uint64_t> seeds;
  /// traces[r]: replication r's rep-tagged event stream as headerless
  /// dynvote-btrace-v1 records whose string table restarts per body —
  /// concatenating bodies behind one BinaryTraceHeader yields a valid
  /// file, and feeding them in order to a JsonlPageSink renders the JSONL
  /// body. Empty unless ReplicationOptions::collect_traces.
  std::vector<std::string> traces;
  /// trace_events[r]: the number of events in traces[r].
  std::vector<std::uint64_t> trace_events;
  /// All replications' metrics, merged in replication order. Empty unless
  /// ReplicationOptions::collect_metrics.
  MetricsShard metrics;
};

/// The seed replication `replication` runs with. Replication 0 uses the
/// master seed unchanged (sequential compatibility); replication r > 0
/// uses the r-th output of a SplitMix64 stream seeded with the master
/// seed, the standard seed-expansion scheme of util/rng.h.
std::uint64_t ReplicationSeed(std::uint64_t master_seed, int replication);

/// Builds one replication's protocol set, the same set every call.
/// Invoked once to decide the engine and, on the solo engine, once per
/// replication, possibly concurrently from worker threads: it must be
/// thread-safe, which in practice means it only reads shared immutable
/// data (topology, placement) and allocates fresh protocol instances.
using ProtocolSetFactory = std::function<
    Result<std::vector<std::unique_ptr<ConsistencyProtocol>>>()>;

/// Runs `options.replications` independent replications of
/// RunAvailabilityExperiment(spec, factory()) over `options.jobs` worker
/// threads and aggregates. `spec.options.seed` is the master seed; each
/// replication runs with ReplicationSeed(master, r).
///
/// The engine is decided once for the whole run. When it collects
/// neither traces nor metrics, BatchedPlanFor is asked on one
/// factory-built set; with a plan, replications run in groups of
/// `options.objects`, one batched-engine call per group, and the factory
/// is not called again. Otherwise every replication builds its own set
/// and runs on the solo engine. The engines' bit-identity contract makes
/// the output byte-identical either way. The last parameter is ignored
/// (the plan is derived from the factory's protocols); it stays so
/// existing four-argument callers compile.
Result<ReplicatedResults> RunReplicatedExperiment(
    const ExperimentSpec& spec, const ProtocolSetFactory& factory,
    const ReplicationOptions& options,
    const BatchedProtocolSpec* ignored = nullptr);

/// Replicated analogue of RunPaperExperiment: paper network, placement
/// per configuration `config_label`, the named policies.
Result<ReplicatedResults> RunReplicatedPaperExperiment(
    char config_label, const std::vector<std::string>& policies,
    const ExperimentOptions& options,
    const ReplicationOptions& replication);

/// Flattens aggregates into one PolicyResult per protocol whose scalar
/// fields are the cross-replication means (counters are summed), for
/// table/CSV paths built around single-run rows. With one replication
/// this is exactly per_replication[0].
std::vector<PolicyResult> MeanPolicyResults(const ReplicatedResults& results);

}  // namespace dynvote
