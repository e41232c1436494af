// The replay harness behind the model checker: applies one schedule
// action at a time to a replicated KV cluster (plus optional shadow
// clusters for differential oracles), checks the paper's safety
// invariants after every action, and exposes a canonical signature of the
// complete reached state so the exhaustive engine can merge equivalent
// states.
//
// Invariants checked (per cluster):
//   mutual_exclusion          at most one group of communicating sites is
//                             granted;
//   one_copy_serialisability  every granted read observes the most
//                             recently committed write;
//   uncommitted_read          loose mode: reads must still never return a
//                             value that was never committed;
//   status_contract           data-plane and recovery calls return only
//                             OK / NoQuorum (reads also NotFound /
//                             Unavailable) — anything else is a bug.
//
// Differential oracles compare a second cluster driven by the identical
// schedule; see DifferentialOracle.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/action.h"
#include "kv/cluster.h"
#include "net/topology.h"
#include "util/result.h"
#include "util/site_set.h"

namespace dynvote {
namespace check {

/// Cross-implementation agreement checked alongside the safety
/// invariants.
enum class DifferentialOracle {
  kNone,
  /// Shadow = the same protocol with every quorum cache disabled (the
  /// CLI's --no-quorum-cache escape hatch). Every per-site operation
  /// status and every per-component grant decision must agree on every
  /// step: memoization must be invisible.
  kQuorumCache,
  /// Primary DV, shadow JM-DV: the Jajodia-Mutchler cardinality
  /// formulation must grant exactly where the partition-set formulation
  /// grants, on every step (the claim jm_voting.h substantiates).
  kJmEquivalence,
  /// Primary LDV, shadow ODV, compared per component and only when
  /// neither decision involves the tie-break. REFUTABLE: optimistic
  /// state lags instantaneous state after unaccessed network events, and
  /// the checker finds a three-action counterexample on single5 (kept in
  /// tests/check/corpus/ as a regression of the checker's power).
  kLexPair,
};

/// Name used in the counterexample schema ("none", "quorum_cache", ...).
const char* DifferentialOracleName(DifferentialOracle oracle);
Result<DifferentialOracle> ParseDifferentialOracle(const std::string& name);

/// What the harness enforces.
struct InvariantPolicy {
  /// Enforce mutual exclusion and one-copy serialisability. Callers
  /// normally set this to the protocol's partition_safe(): the
  /// topological variants' documented fork hazard and AC's no-partition
  /// assumption make strict checking fail BY DESIGN for them (the
  /// checker rediscovers those hazards — see tests/check/corpus/), and
  /// loose mode holds their reads to uncommitted_read only.
  bool strict = true;
  /// Mutual-exclusion threshold: a state with more granted groups than
  /// this violates. 1 is the paper's invariant; 0 is the deliberately
  /// weakened test hook (any grant at all trips), used to prove the
  /// find-shrink-replay pipeline end to end.
  int max_granted_groups = 1;
  DifferentialOracle oracle = DifferentialOracle::kNone;
};

/// A failed invariant: which one, at which schedule step, and a
/// human-readable account.
struct Violation {
  std::string invariant;
  int step = -1;
  std::string detail;
};

/// One cluster plus the bookkeeping the invariants need.
struct HarnessArm {
  std::unique_ptr<KvCluster> cluster;
  std::vector<std::string> committed;  // committed values, in order
  int counter = 0;                     // next write value suffix
  bool strict = false;                 // mutual exclusion + 1SR enforced
  /// StatusCode of each per-site operation the last action performed,
  /// in site order — the cross-arm comparison key for the strict
  /// oracles.
  std::vector<int> last_statuses;
};

/// Drives one schedule against a cluster (and oracle shadows). A
/// harness only moves forward; to explore several continuations of one
/// reached state, AssignFrom() it into a scratch harness once per
/// continuation.
class CheckHarness {
 public:
  /// `protocol` is a registry name; the oracle dictates the shadow
  /// (kJmEquivalence requires protocol DV, kLexPair requires LDV).
  static Result<std::unique_ptr<CheckHarness>> Make(
      std::shared_ptr<const Topology> topology, SiteSet placement,
      const std::string& protocol, InvariantPolicy policy);

  /// Overwrites this harness with the state `other` reached: every arm's
  /// cluster (KvCluster::AssignFrom), committed history and status
  /// codes, plus the step and commit/read counters, reusing this
  /// harness's allocations. Applying the rest of a schedule afterwards
  /// is indistinguishable from replaying the whole schedule on a fresh
  /// harness, and leaves `other` untouched. Both harnesses must come from
  /// Make with the same protocol and oracle (CHECK-fails on a different
  /// arm count or protocol type); earlier history of this one does not
  /// matter.
  void AssignFrom(const CheckHarness& other);

  /// Applies one action to every arm and checks every invariant.
  /// Returns the first violation, if any; after a violation the harness
  /// must not be used further until AssignFrom overwrites it.
  std::optional<Violation> Apply(const CheckAction& action);

  /// Appends a canonical signature of the complete reached state (all
  /// arms: network, protocol ensembles, replica contents relative to the
  /// committed history). Returns false if a protocol cannot canonicalize
  /// its state, in which case exploration must not merge states.
  bool AppendSignature(std::string* out) const;

  /// True iff site/repeater toggles on distinct targets commute for
  /// every arm: a toggle's only effect is then flipping one independent
  /// network bit (the protocol's OnNetworkEvent is a no-op — MCV and the
  /// optimistic variants), so reordering adjacent toggles reaches the
  /// same state. Partial-order reduction is sound exactly when this
  /// holds; instantaneous protocols commit partition-set updates *per
  /// network event*, so their toggle order is observable and the checker
  /// must not reduce it.
  bool TogglesCommute() const;

  /// Total committed writes / checked reads across all applied actions.
  std::uint64_t commits() const { return commits_; }
  std::uint64_t reads_checked() const { return reads_checked_; }
  int steps() const { return steps_; }

  const InvariantPolicy& policy() const { return policy_; }

 private:
  CheckHarness(InvariantPolicy policy) : policy_(policy) {}

  /// Applies the action to one arm; fills arm->last_statuses and may
  /// report a single-arm violation.
  std::optional<Violation> ApplyToArm(HarnessArm* arm,
                                      const CheckAction& action);
  /// Cross-arm agreement per the configured oracle.
  std::optional<Violation> CheckOracle(const CheckAction& action);
  std::optional<Violation> Violate(const std::string& invariant,
                                   std::string detail) const;

  InvariantPolicy policy_;
  std::vector<HarnessArm> arms_;  // [0] = primary, [1] = shadow (if any)
  int steps_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t reads_checked_ = 0;
};

}  // namespace check
}  // namespace dynvote
