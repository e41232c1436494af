// The batched multi-object simulation engine: N independent replicated
// files ("objects") run back to back, each from its seed to the horizon
// on its own SamplePath (model/sample_path.h), with its replica/protocol
// state held as plain data — 64-bit SiteSet masks, vote counters and
// operation/version scalars — instead of protocol-object heaps. The
// paper's one-access-per-day workload is the sparse-event regime where
// per-object fixed costs (virtual protocol calls, memo bookkeeping)
// dominate; plain-data protocol slots and the uniform-mode fast path
// below remove them. Each object's state is built fresh from its seed,
// so objects share nothing but the run's read-only inputs.
//
// Bit-identity contract: PolicyResult rows for object k in a batch of N
// are bit-identical to a RunSoloAvailabilityExperiment with seed
// seeds[k] — same tracker updates, counters and grant decisions. The
// engine guarantees this by construction:
//   - both engines drive the same SamplePath, so the event sequence, the
//     RNG draws and the network states are the solo run's;
//   - protocol decisions use an integer fast path (all-copies-equal
//     "uniform" mode: popcount majority tests over SiteSet masks) that
//     falls back to the real ReplicaStore + EvaluateDynamicQuorum the
//     moment a commit leaves the copies divergent, so every decision
//     equals the solo protocol object's decision.
//
// The engine is deliberately observability-free: traced, metered and
// serving runs stay on the instrumented solo engine
// (RunSoloAvailabilityExperiment), which produces identical statistics.
// RunAvailabilityExperiment picks the engine per run with BatchedPlanFor.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/experiment.h"
#include "util/result.h"
#include "util/site_set.h"

namespace dynvote {

/// Protocol selection for the batched engine: registry names sharing one
/// placement (the paper's experiments always compare protocols over a
/// common placement).
struct BatchedProtocolSpec {
  std::vector<std::string> policies;
  SiteSet placement;
};

/// True iff every named policy has a batched fast-path implementation:
/// the paper set MCV, DV, LDV, ODV, TDV, OTDV (at most 32 policies).
/// Anything else (AC, JM-DV, weighted/witness variants) must run through
/// the per-replication protocol objects.
bool BatchedEngineSupports(const std::vector<std::string>& policies);

/// The batched plan that reproduces RunSoloAvailabilityExperiment(spec,
/// protocols) bit for bit, or nullopt when the run must stay on the solo
/// engine. A plan exists iff
///   - spec.obs is null, serving is off and spec.options.quorum_cache is
///     on (--no-quorum-cache keeps meaning "unmemoized reference path");
///   - every protocol is a stock paper policy: MCV with uniform weights,
///     lexicographic tie-break, no explicit quorums and the name "MCV",
///     or a DynamicVoting whose flags are exactly DV/LDV/ODV/TDV/OTDV
///     with uniform weights, no witnesses, the derived name, built on
///     spec.topology;
///   - every protocol is untouched: replica store in its initial state,
///     zero message counts, no commit hook or obs context;
///   - all protocols share one placement inside the topology.
/// Decided only from what the protocol objects expose, so adding an
/// option the batched plans do not model must extend this predicate.
std::optional<BatchedProtocolSpec> BatchedPlanFor(
    const ExperimentSpec& spec,
    const std::vector<std::unique_ptr<ConsistencyProtocol>>& protocols);

/// Runs seeds.size() independent objects, one after another.
/// Returns one PolicyResult row vector per object, in seed order;
/// results[k][p] is bit-identical to what RunSoloAvailabilityExperiment
/// would report for policy p with spec.options.seed = seeds[k].
/// spec.options.seed itself is ignored; spec.obs must be null and the
/// serving model off.
Result<std::vector<std::vector<PolicyResult>>>
RunBatchedAvailabilityExperiment(const ExperimentSpec& spec,
                                 const BatchedProtocolSpec& protocols,
                                 const std::vector<std::uint64_t>& seeds);

}  // namespace dynvote
