// The batched multi-object simulation engine: N independent replicated
// files ("objects") run back to back, each from its seed to the horizon
// on its own SamplePath (model/sample_path.h), with one ReplicaStore and
// one MessageCounter per protocol instead of protocol objects. The
// paper's one-access-per-day workload is the sparse-event regime where
// the protocol objects' per-object fixed costs (virtual calls, memo
// bookkeeping) dominate; the engine runs the protocols' own reaction code
// without them, and no decision is memoized. Each object's state is built
// fresh from its seed, so objects share nothing but the run's read-only
// inputs.
//
// Bit-identity contract: PolicyResult rows for object k in a batch of N
// are bit-identical to a RunSoloAvailabilityExperiment with seed
// seeds[k] — same tracker updates, counters and grant decisions. The
// engine guarantees this by construction:
//   - both engines drive the same SamplePath, so the event sequence, the
//     RNG draws and the network states are the solo run's;
//   - Algorithm 1's reactions are written once (core/dynamic_voting_rules.h)
//     over a compile-time host: DynamicVoting is the solo host, and
//     dv_rules::PlainHost, over each object's store and counter, is this
//     engine's. It decides with the same EvaluateDynamicQuorum; its one
//     shortcut is a store query: a group whose copies the last commit
//     left with one ensemble and P = exactly those copies ("settled")
//     gets the kernel's decision without an evaluation. MCV decides with
//     MajorityConsensusVoting's own static rule and access charge;
//   - a policy's plan is the registry's protocol of that name: its
//     options, name and partition_safe().
//
// The engine is deliberately observability-free: traced, metered and
// serving runs stay on the instrumented solo engine
// (RunSoloAvailabilityExperiment), which produces identical statistics.
// BatchedPlanFor picks the engine: RunAvailabilityExperiment asks it per
// run, RunReplicatedExperiment once per replicated run.

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
///   - every protocol is a stock paper policy: it carries a paper
///     policy's name, and the type and options the registry builds under
///     that name (uniform weights, no witnesses, no explicit quorums),
///     on spec.topology;
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
