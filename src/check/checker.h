// The model-checking engine: explores action schedules against a
// CheckHarness either bounded-exhaustively (level-synchronous BFS with
// canonical-state memoization, so equivalent interleavings are expanded
// once) or as a seeded swarm of random schedules. Both modes fan their
// independent work out over a ThreadPool (`jobs`): exhaustive mode a
// contiguous run of frontier states per task, each rebuilt from the
// task's cached ancestor states and assigned into one scratch harness per
// child, swarm mode a run of schedules per task. Results merge in
// deterministic expansion order, so every report field — verdicts, state
// counts, the first counterexample — is bit-identical for any job count
// and any chunking. Exhaustive mode additionally applies partial-order
// reduction over commuting toggles when the harness proves them
// independent. The first invariant violation is shrunk to a 1-minimal
// reproducer and returned as a replayable CounterExample.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "check/counterexample.h"
#include "check/harness.h"
#include "util/result.h"
#include "util/site_set.h"

namespace dynvote {
namespace check {

enum class CheckMode {
  /// Enumerate every schedule up to `depth` actions, merging states with
  /// equal canonical signatures (when memoization is on and the protocol
  /// canonicalizes).
  kExhaustive,
  /// Run `swarm_schedules` random schedules of `swarm_depth` actions
  /// each, deterministically derived from `seed`.
  kSwarm,
};

struct CheckOptions {
  std::string protocol = "ODV";   // registry name
  std::string topology = "single3";  // see topologies.h
  /// Copy placement; empty means every site of the topology.
  SiteSet placement;
  CheckMode mode = CheckMode::kExhaustive;
  /// Exhaustive bound: maximum schedule length.
  int depth = 5;
  /// Merge canonically-equal states during exhaustive exploration.
  bool memoize = true;
  std::uint64_t seed = 1;
  int swarm_schedules = 256;
  int swarm_depth = 12;
  InvariantPolicy policy;
  /// Delta-debug a found violation down to a 1-minimal schedule.
  bool shrink = true;
  /// Worker threads for the exploration fan-out (0 = all cores). Never
  /// changes any report field, only wall-clock time.
  int jobs = 1;
  /// Partial-order reduction (exhaustive mode): canonicalize runs of
  /// adjacent commuting toggles to the single ascending-order
  /// interleaving. Applied only when the harness proves toggles commute
  /// (CheckHarness::TogglesCommute); the visited-state *set* at any
  /// depth is unchanged, only the expansions needed to cover it shrink.
  bool por = true;
};

struct CheckReport {
  /// Distinct canonical states reached (including the initial state).
  /// Without memoization this counts explored schedule prefixes instead.
  std::uint64_t states_visited = 0;
  /// (state, action) expansions performed (exhaustive) or actions
  /// applied (swarm).
  std::uint64_t transitions = 0;
  /// Complete schedules the swarm ran; 0 in exhaustive mode.
  std::uint64_t schedules_run = 0;
  /// Naive sequence count the exhaustive bound covers:
  /// sum over d = 1..depth of |alphabet|^d (saturating).
  std::uint64_t unpruned_sequences = 0;
  /// Committed writes / checked reads across every harness replay.
  std::uint64_t commits = 0;
  std::uint64_t reads_checked = 0;
  /// True iff state merging was actually in effect (memoize requested
  /// and every reached state canonicalized).
  bool memoized = false;
  /// True iff partial-order reduction was actually in effect (requested,
  /// exhaustive mode, and the harness proved toggles commute).
  bool por_active = false;
  /// Order-independent digest of the visited canonical-signature set
  /// (exhaustive + memoized runs; 0 otherwise). Equal digests mean equal
  /// state *sets*: the POR on/off equivalence and jobs-determinism
  /// checks compare this, not just the count.
  std::uint64_t visited_digest = 0;
  /// Exhaustive mode: the first depth whose BFS level reached no state
  /// that an earlier level had not, i.e. the reachable state space is
  /// exhausted and the verdict holds for schedules of every length.
  /// Checked up to and including `depth`; 0 means the space is still
  /// open at the bound (or a violation ended the search first).
  int closed_at_depth = 0;
  /// Present iff an invariant violation was found (already shrunk when
  /// options.shrink).
  std::optional<CounterExample> counterexample;
};

/// Runs the configured exploration. A found violation is reported in the
/// CheckReport, not as an error status; errors mean the configuration
/// itself is invalid (unknown protocol/topology, oracle mismatch, ...).
Result<CheckReport> RunCheck(const CheckOptions& options);

}  // namespace check
}  // namespace dynvote
