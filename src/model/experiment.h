// The simulation driver: wires a topology, Table 1 style failure
// processes, an access workload and a set of consistency protocols into
// one discrete-event run, observing every protocol over the *same* sample
// path (common random numbers, which sharpens cross-policy comparisons the
// way the paper's single testbed model does).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "model/open_loop.h"
#include "model/sample_path.h"
#include "model/site_profile.h"
#include "obs/context.h"
#include "net/topology.h"
#include "repl/message_bus.h"
#include "sim/time.h"
#include "stats/batch_means.h"
#include "util/result.h"

namespace dynvote {

/// Run-length and workload parameters of one experiment.
struct ExperimentOptions {
  /// Warm-up discarded before measurement (the paper uses 360 days).
  SimTime warmup = Days(360);
  /// Number of batches for batch-means confidence intervals.
  int num_batches = 30;
  /// Length of each batch; total measured time = num_batches * this.
  SimTime batch_length = Years(20);
  /// The access workload (one access per day in the paper).
  AccessOptions access;
  /// The serving model (docs/serving.md). When enabled, the closed-loop
  /// access workload above is replaced by open-loop Poisson arrivals per
  /// replica with a queueing stage, and serving_* metrics are emitted.
  ServingOptions serving;
  /// Master seed; runs with equal seeds are bit-identical.
  std::uint64_t seed = 20260704;
  /// Abort (CHECK) if two disjoint groups are ever simultaneously granted
  /// by a partition-safe protocol.
  bool check_mutual_exclusion = true;
  /// Memoize per-protocol grant decisions keyed by (component mask,
  /// access type) and invalidated on store-epoch movement — see
  /// ConsistencyProtocol::CachedWouldGrant. Never changes results, only
  /// wall-clock time; the false setting is the --no-quorum-cache escape
  /// hatch used by the cache-identity regression tests.
  bool quorum_cache = true;
};

/// Per-protocol outcome of one experiment.
struct PolicyResult {
  std::string name;
  /// Fraction of measured time the file was inaccessible (Table 2).
  double unavailability = 0.0;
  /// Batch-means summary of the unavailability (95 % CI).
  BatchStats stats;
  /// Mean length of an unavailable period, days (Table 3); 0 with
  /// num_unavailable_periods == 0 means "never unavailable" and is
  /// printed as "-".
  double mean_unavailable_duration = 0.0;
  int num_unavailable_periods = 0;
  /// Access outcomes.
  std::uint64_t accesses_attempted = 0;
  std::uint64_t accesses_granted = 0;
  /// Message traffic the protocol generated over the whole run
  /// (including warm-up).
  MessageCounter messages;
  /// Measured time in days.
  double measured_time = 0.0;
  /// Sampled instants at which two disjoint groups were simultaneously
  /// granted. Always 0 for partition-safe protocols (enforced); nonzero
  /// values quantify the topological variants' documented mutual-exclusion
  /// hazard.
  std::uint64_t dual_majority_instants = 0;
  /// Days from the start of measurement until the file first became
  /// unavailable; -1 if it never did (right-censored at the horizon).
  /// The reliability metric behind the paper's "continuously available
  /// for more than three hundred years" remark.
  double time_to_first_outage = -1.0;
};

/// Everything an experiment needs besides the protocols themselves.
struct ExperimentSpec {
  std::shared_ptr<const Topology> topology;
  std::vector<SiteProfile> profiles;
  std::vector<RepeaterProfile> repeater_profiles;  // empty if none
  ExperimentOptions options;
  /// Observability context attached to the event loop, the network state,
  /// every protocol and every tracker for the duration of the run. Not
  /// owned; null (the default) disables tracing and metrics entirely.
  /// Tracing never changes statistical outputs — only what is recorded.
  ObsContext* obs = nullptr;
};

/// Runs `protocols` through one simulated sample path and reports a
/// result per protocol (in input order). The single place that picks an
/// engine: when BatchedPlanFor (model/batched_experiment.h) yields a plan
/// — an untraced, unmetered, non-serving, memoized run of untouched stock
/// paper policies — the run executes as a batch of one in the batched
/// engine; every other run goes to RunSoloAvailabilityExperiment. Both
/// engines produce bit-identical rows, so the choice is invisible except
/// in wall-clock time.
Result<std::vector<PolicyResult>> RunAvailabilityExperiment(
    const ExperimentSpec& spec,
    std::vector<std::unique_ptr<ConsistencyProtocol>> protocols);

/// The instrumented reference engine: one SamplePath driving the real
/// protocol objects. The only engine that emits traces and
/// metrics, runs the serving model, honours --no-quorum-cache, and
/// supports every protocol, option and attached commit hook. Tests and
/// benches call it directly as the oracle the batched engine is compared
/// against.
Result<std::vector<PolicyResult>> RunSoloAvailabilityExperiment(
    const ExperimentSpec& spec,
    std::vector<std::unique_ptr<ConsistencyProtocol>> protocols);

/// Convenience wrapper: builds the paper's network, places copies per
/// configuration `config_label` ('A'..'H') and runs the named policies
/// (registry names).
Result<std::vector<PolicyResult>> RunPaperExperiment(
    char config_label, const std::vector<std::string>& policies,
    const ExperimentOptions& options);

}  // namespace dynvote
