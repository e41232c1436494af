#include "check/checker.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "check/shrink.h"
#include "check/topologies.h"
#include "check/visited_set.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dynvote {
namespace check {
namespace {

/// Shared context of one RunCheck invocation.
struct Exploration {
  CheckOptions options;
  std::shared_ptr<const Topology> topology;
  SiteSet placement;
  std::vector<CheckAction> alphabet;
  /// Alphabet prefix that is toggles (sites then repeaters) — the total
  /// order POR canonicalizes adjacent commuting toggles into.
  std::size_t num_toggles = 0;
  /// POR requested, exhaustive mode, and the harness proved toggles
  /// commute (CheckHarness::TogglesCommute).
  bool por_active = false;
  /// Null when jobs == 1: the fan-out runs inline on the caller thread.
  /// Either way the algorithm — work-list order, claim tokens, merge —
  /// is identical, which is what makes reports bit-identical per jobs.
  ThreadPool* pool = nullptr;
  CheckReport report;
};

Result<std::unique_ptr<CheckHarness>> FreshHarness(const Exploration& ex) {
  return CheckHarness::Make(ex.topology, ex.placement, ex.options.protocol,
                            ex.options.policy);
}

/// Replays `schedule` on a fresh harness; returns the violation it trips,
/// if any, and hands the harness back. Exhaustive mode replays only the
/// empty schedule (the root of each task's ancestor path, see
/// AncestorPath); shrinking replays every candidate.
Result<std::optional<Violation>> Replay(
    const Exploration& ex, const std::vector<CheckAction>& schedule,
    std::unique_ptr<CheckHarness>* harness_out) {
  DYNVOTE_ASSIGN_OR_RETURN(std::unique_ptr<CheckHarness> harness,
                           FreshHarness(ex));
  std::optional<Violation> violation;
  for (const CheckAction& action : schedule) {
    violation = harness->Apply(action);
    if (violation.has_value()) break;
  }
  *harness_out = std::move(harness);
  return violation;
}

/// Shrinks a failing schedule to 1-minimality (preserving the tripped
/// invariant), re-runs it to refresh step/detail, and packages the
/// counterexample. Sequential by design: shrink candidates depend on the
/// previous candidate's outcome.
Result<CounterExample> BuildCounterExample(const Exploration& ex,
                                           std::vector<CheckAction> schedule,
                                           const Violation& violation) {
  if (ex.options.shrink) {
    const std::string invariant = violation.invariant;
    schedule = ShrinkSchedule(
        std::move(schedule),
        [&ex, &invariant](const std::vector<CheckAction>& candidate) {
          std::unique_ptr<CheckHarness> harness;
          auto replayed = Replay(ex, candidate, &harness);
          return replayed.ok() && replayed->has_value() &&
                 (*replayed)->invariant == invariant;
        });
  }
  // Re-run the final schedule so step/detail match it exactly, and drop
  // any trailing actions past the violation.
  std::unique_ptr<CheckHarness> harness;
  DYNVOTE_ASSIGN_OR_RETURN(std::optional<Violation> final_violation,
                           Replay(ex, schedule, &harness));
  if (!final_violation.has_value()) {
    return Status::Internal("shrunk schedule no longer fails: " +
                            ScheduleToString(schedule));
  }
  schedule.resize(static_cast<std::size_t>(final_violation->step) + 1);

  CounterExample ce;
  ce.protocol = ex.options.protocol;
  ce.topology = ex.options.topology;
  ce.placement = ex.placement;
  ce.policy = ex.options.policy;
  ce.schedule = std::move(schedule);
  ce.violation = *final_violation;
  return ce;
}

/// sum over d = 1..depth of |alphabet|^d, saturating at uint64 max.
std::uint64_t UnprunedSequences(std::size_t alphabet, int depth) {
  const std::uint64_t kMax = ~std::uint64_t{0};
  std::uint64_t total = 0;
  std::uint64_t layer = 1;
  for (int d = 0; d < depth; ++d) {
    if (layer > kMax / alphabet) return kMax;
    layer *= alphabet;
    if (total > kMax - layer) return kMax;
    total += layer;
  }
  return total;
}

/// One distinct reached state in the BFS tree. levels[d][i] is the i-th
/// state first reached at depth d; its schedule is its parent's (entry
/// `parent` of levels[d - 1]) plus alphabet[action]. The root,
/// levels[0][0], stands for the empty schedule. Parent links keep an
/// entry at 12 bytes however deep it sits.
struct FrontierEntry {
  std::uint32_t parent = 0;  // index into the previous level
  std::uint32_t action = 0;  // alphabet index
  int last_toggle = -1;      // POR toggle order of `action`
};

using Levels = std::vector<std::vector<FrontierEntry>>;

/// An expansion's rare outcomes, kept out of line (see Expansion).
struct Failure {
  Status status;  // harness construction / replay configuration errors
  std::optional<Violation> violation;
};

/// One (frontier entry, action) expansion of the current BFS level: the
/// work-list entry built deterministically up front, the results its
/// entry's worker fills in phase A, both consumed by the sequential
/// phase-B merge. The expansion's claim token is the level's first
/// token plus its slot index — the global BFS expansion index. The
/// visited set keeps the minimum token per signature, so the merge can
/// tell "first schedule to reach this state in BFS order" apart from
/// "lost the race to an earlier-ordered expansion".
struct Expansion {
  std::uint32_t parent = 0;  // frontier index
  std::uint16_t action = 0;  // alphabet index (a dozen actions at most)

  // Phase-A results.
  bool canonical = false;
  /// The child schedule's commit/read totals: at most one commit per
  /// action and one read per site per action, far inside 32 bits.
  std::uint32_t commits = 0;
  std::uint32_t reads = 0;
  /// The signature's min-token cell in the visited set; null unless
  /// memoizing and canonical. Read only after the level barrier.
  const std::uint64_t* claim = nullptr;
  /// Null unless this expansion failed or violated an invariant.
  std::unique_ptr<Failure> failure;
};
// Failures are rare (one per run at most), so they live out of line.
static_assert(sizeof(Expansion) <= 32, "BFS slot outgrew its budget");

/// POR's total order position of alphabet action `ai`: its index for a
/// toggle, -1 for a data-plane move.
int ToggleOrder(const Exploration& ex, std::size_t ai) {
  return ai < ex.num_toggles ? static_cast<int>(ai) : -1;
}

/// The schedule levels[depth][index] represents, rebuilt by walking its
/// parent links back to the root.
std::vector<CheckAction> ScheduleOf(const Exploration& ex,
                                    const Levels& levels, std::size_t depth,
                                    std::uint32_t index) {
  std::vector<CheckAction> schedule(depth);
  for (std::size_t d = depth; d > 0; --d) {
    const FrontierEntry& entry = levels[d][index];
    schedule[d - 1] = ex.alphabet[entry.action];
    index = entry.parent;
  }
  return schedule;
}

/// One task's states along the ancestor chain of the frontier entry it
/// rebuilt last: states_[k] holds that entry's level-k ancestor (states_[0]
/// the root), index_[k] its index in levels[k]. A task walks a contiguous
/// run of one level, whose neighbouring entries share all but their last
/// few ancestors, so moving to the next entry re-applies only the actions
/// below the deepest ancestor the two share — one AssignFrom plus one
/// Apply per level — instead of replaying the whole schedule.
class AncestorPath {
 public:
  /// The state of levels[depth][entry].
  Result<const CheckHarness*> MoveTo(const Exploration& ex,
                                     const Levels& levels, std::size_t depth,
                                     std::uint32_t entry) {
    if (states_.empty()) {
      std::unique_ptr<CheckHarness> root;
      DYNVOTE_ASSIGN_OR_RETURN(std::optional<Violation> violation,
                               Replay(ex, {}, &root));
      (void)violation;  // empty schedule cannot violate
      states_.push_back(std::move(root));
      index_.push_back(0);
      valid_ = 1;
    }
    target_.resize(depth + 1);
    target_[depth] = entry;
    for (std::size_t d = depth; d > 0; --d) {
      target_[d - 1] = levels[d][target_[d]].parent;
    }
    // Every level's entries form a tree under the root, so the first
    // level whose ancestors differ ends the shared prefix.
    std::size_t shared = 0;
    while (shared + 1 < valid_ && shared + 1 <= depth &&
           index_[shared + 1] == target_[shared + 1]) {
      ++shared;
    }
    valid_ = shared + 1;
    for (std::size_t k = shared + 1; k <= depth; ++k) {
      if (k == states_.size()) {
        DYNVOTE_ASSIGN_OR_RETURN(std::unique_ptr<CheckHarness> made,
                                 FreshHarness(ex));
        states_.push_back(std::move(made));
        index_.push_back(0);
      }
      states_[k]->AssignFrom(*states_[k - 1]);
      if (states_[k]
              ->Apply(ex.alphabet[levels[k][target_[k]].action])
              .has_value()) {
        return Status::Internal(
            "frontier schedule violates on replay: " +
            ScheduleToString(ScheduleOf(ex, levels, depth, entry)));
      }
      index_[k] = target_[k];
      valid_ = k + 1;
    }
    return states_[depth].get();
  }

 private:
  std::vector<std::unique_ptr<CheckHarness>> states_;
  std::vector<std::uint32_t> index_;
  std::vector<std::uint32_t> target_;  // scratch: the entry's ancestors
  std::size_t valid_ = 0;              // states_[0, valid_) are current
};

Status RunExhaustive(Exploration* ex) {
  ex->report.unpruned_sequences =
      UnprunedSequences(ex->alphabet.size(), ex->options.depth);

  // Level-synchronous BFS. Each level holds one parent-linked entry per
  // distinct state first reached at that depth; an entry's state is
  // rebuilt once, when its level is expanded, from the ancestor states
  // its task already holds (AncestorPath), and every child is assigned
  // from it into the task's one scratch harness. Claim tokens grow
  // monotonically across levels, so a state first reached at an earlier
  // level always outranks (is smaller than) every current-level claim.
  ShardedVisitedSet visited;
  bool all_canonical = true;
  std::uint64_t next_token = 1;

  const bool memoize = ex->options.memoize;
  auto finish = [ex, &visited, &all_canonical, memoize] {
    ex->report.memoized = memoize && all_canonical;
    ex->report.visited_digest = memoize ? visited.Digest() : 0;
  };

  Levels levels;
  {
    std::unique_ptr<CheckHarness> harness;
    DYNVOTE_ASSIGN_OR_RETURN(std::optional<Violation> violation,
                             Replay(*ex, {}, &harness));
    (void)violation;  // empty schedule cannot violate
    std::string signature;
    if (harness->AppendSignature(&signature)) {
      visited.InsertMin(signature, 0);
    } else {
      all_canonical = false;
    }
    levels.push_back({FrontierEntry{}});
    ex->report.states_visited = 1;
  }

  for (int d = 0; d < ex->options.depth; ++d) {
    const std::vector<FrontierEntry>& frontier = levels.back();
    // The level work list, in the exact order a sequential BFS would
    // expand (frontier order x alphabet order), minus the interleavings
    // POR canonicalizes away: appending toggle a after toggle b with
    // order(a) < order(b) is skipped, because a's and b's effects
    // commute and the ascending twin ...a,b reaches the same state (the
    // intermediate states are themselves explored as shorter prefixes).
    // first_slot[p] .. first_slot[p + 1] are entry p's expansions.
    std::vector<Expansion> slots;
    std::vector<std::size_t> first_slot;
    slots.reserve(frontier.size() * ex->alphabet.size());
    first_slot.reserve(frontier.size() + 1);
    for (std::size_t p = 0; p < frontier.size(); ++p) {
      first_slot.push_back(slots.size());
      for (std::size_t ai = 0; ai < ex->alphabet.size(); ++ai) {
        const int toggle = ToggleOrder(*ex, ai);
        if (ex->por_active && toggle >= 0 &&
            frontier[p].last_toggle > toggle) {
          continue;
        }
        Expansion& e = slots.emplace_back();
        e.parent = static_cast<std::uint32_t>(p);
        e.action = static_cast<std::uint16_t>(ai);
      }
    }
    first_slot.push_back(slots.size());
    const std::uint64_t first_token = next_token;
    next_token += slots.size();

    // Phase A: one task per contiguous run of frontier entries. For each
    // entry the task rebuilds the entry's state on its ancestor path,
    // then for each child assigns that state into its scratch harness,
    // applies the child's action and publishes the canonical signature
    // into the sharded visited set under per-shard locks; min-combine
    // makes the set's final contents independent of the interleaving.
    // Workers fill disjoint slots.
    const std::size_t depth = static_cast<std::size_t>(d);
    ParallelFor(ex->pool, frontier.size(), [ex, &levels, depth, &slots,
                                            &first_slot, &visited,
                                            first_token](std::size_t first,
                                                         std::size_t last) {
      AncestorPath path;
      auto child = FreshHarness(*ex);
      std::string signature;
      for (std::size_t p = first; p < last; ++p) {
        const std::size_t begin = first_slot[p];
        const std::size_t end = first_slot[p + 1];
        if (begin == end) continue;
        Result<const CheckHarness*> state =
            child.ok() ? path.MoveTo(*ex, levels, depth,
                                     static_cast<std::uint32_t>(p))
                       : child.status();
        if (!state.ok()) {
          // Phase B stops at this slot: every earlier slot is filled.
          slots[begin].failure =
              std::make_unique<Failure>(Failure{state.status(), {}});
          return;
        }
        for (std::size_t i = begin; i < end; ++i) {
          Expansion& e = slots[i];
          CheckHarness& scratch = **child;
          scratch.AssignFrom(**state);
          std::optional<Violation> violation =
              scratch.Apply(ex->alphabet[e.action]);
          e.commits = static_cast<std::uint32_t>(scratch.commits());
          e.reads = static_cast<std::uint32_t>(scratch.reads_checked());
          if (violation.has_value()) {
            e.failure = std::make_unique<Failure>(
                Failure{Status::OK(), std::move(violation)});
            continue;
          }
          if (!ex->options.memoize) continue;
          signature.clear();
          e.canonical = scratch.AppendSignature(&signature);
          if (e.canonical) {
            e.claim = visited.InsertMin(signature, first_token + i);
          }
        }
      }
    });

    // Phase B: merge in claim-token (= sequential BFS) order. This is
    // the same discipline MetricsRegistry uses: workers fill
    // pre-assigned slots, one thread folds them in a fixed order, so
    // verdicts, counts and the first counterexample are bit-identical
    // for any job count. The level barrier orders the claim-cell reads
    // after every phase-A write.
    std::vector<FrontierEntry> next;
    const std::uint64_t states_before = ex->report.states_visited;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Expansion& e = slots[i];
      if (e.failure != nullptr) {
        DYNVOTE_RETURN_NOT_OK(e.failure->status);
      }
      ++ex->report.transitions;
      ex->report.commits += e.commits;
      ex->report.reads_checked += e.reads;
      if (e.failure != nullptr) {
        std::vector<CheckAction> schedule =
            ScheduleOf(*ex, levels, depth, e.parent);
        schedule.push_back(ex->alphabet[e.action]);
        DYNVOTE_ASSIGN_OR_RETURN(
            ex->report.counterexample,
            BuildCounterExample(*ex, std::move(schedule),
                                *e.failure->violation));
        finish();
        return Status::OK();
      }
      if (!e.canonical) all_canonical = false;
      if (e.claim != nullptr && *e.claim != first_token + i) {
        // An expansion earlier in BFS order (previous level, or this
        // level with a smaller token) already claimed this state.
        continue;
      }
      ++ex->report.states_visited;
      if (d + 1 < ex->options.depth) {
        next.push_back({e.parent, e.action, ToggleOrder(*ex, e.action)});
      }
    }
    if (ex->report.states_visited == states_before) {
      // Every successor of the previous level was already visited, so
      // no longer schedule reaches a new state either.
      ex->report.closed_at_depth = d + 1;
      break;
    }
    levels.push_back(std::move(next));
  }
  finish();
  return Status::OK();
}

/// One swarm schedule's pre-assigned result slot.
struct SwarmSlot {
  std::vector<CheckAction> schedule;
  std::uint64_t transitions = 0;
  std::uint64_t commits = 0;
  std::uint64_t reads = 0;
  std::optional<Violation> violation;
  Status status;
};

Status RunSwarm(Exploration* ex) {
  const int n = ex->options.swarm_schedules;
  std::vector<SwarmSlot> slots(static_cast<std::size_t>(n));

  // Each schedule gets an independent stream derived from (seed, k), so
  // any single schedule can be re-derived in isolation — and run on any
  // worker without coordination.
  ParallelFor(ex->pool, slots.size(), [ex, &slots](std::size_t first,
                                                    std::size_t last) {
    // Every schedule starts from the initial state, assigned into the
    // task's one harness.
    auto initial = FreshHarness(*ex);
    auto harness = FreshHarness(*ex);
    for (std::size_t k = first; k < last; ++k) {
      SwarmSlot& slot = slots[k];
      Rng rng(SplitMix64(ex->options.seed + static_cast<std::uint64_t>(k))
                  .Next());
      if (!initial.ok() || !harness.ok()) {
        slot.status = initial.ok() ? harness.status() : initial.status();
        continue;
      }
      (*harness)->AssignFrom(**initial);
      slot.schedule.reserve(
          static_cast<std::size_t>(ex->options.swarm_depth));
      for (int step = 0; step < ex->options.swarm_depth; ++step) {
        const CheckAction& action =
            ex->alphabet[rng.NextBounded(ex->alphabet.size())];
        slot.schedule.push_back(action);
        ++slot.transitions;
        slot.violation = (*harness)->Apply(action);
        if (slot.violation.has_value()) break;
      }
      slot.commits = (*harness)->commits();
      slot.reads = (*harness)->reads_checked();
    }
  });

  // Deterministic merge in schedule order: the first violating schedule
  // (by index, not by completion time) becomes the counterexample, and
  // later slots' work is discarded exactly as a sequential loop would
  // never have run them.
  for (SwarmSlot& slot : slots) {
    DYNVOTE_RETURN_NOT_OK(slot.status);
    ex->report.transitions += slot.transitions;
    ++ex->report.schedules_run;
    ex->report.commits += slot.commits;
    ex->report.reads_checked += slot.reads;
    if (slot.violation.has_value()) {
      DYNVOTE_ASSIGN_OR_RETURN(
          ex->report.counterexample,
          BuildCounterExample(*ex, std::move(slot.schedule),
                              *slot.violation));
      return Status::OK();
    }
  }
  return Status::OK();
}

}  // namespace

Result<CheckReport> RunCheck(const CheckOptions& options) {
  Exploration ex;
  ex.options = options;
  DYNVOTE_ASSIGN_OR_RETURN(ex.topology, MakeCheckTopology(options.topology));
  ex.placement =
      options.placement.Empty() ? ex.topology->AllSites() : options.placement;
  ex.alphabet = ActionAlphabet(*ex.topology);
  ex.num_toggles = static_cast<std::size_t>(ex.topology->num_sites() +
                                            ex.topology->num_repeaters());
  if (options.depth < 1 && options.mode == CheckMode::kExhaustive) {
    return Status::InvalidArgument("depth must be at least 1");
  }
  if (options.mode == CheckMode::kSwarm &&
      (options.swarm_schedules < 1 || options.swarm_depth < 1)) {
    return Status::InvalidArgument(
        "swarm schedules and swarm depth must be at least 1");
  }
  DYNVOTE_RETURN_NOT_OK(ValidateWorkerCount(options.jobs));

  // Surface configuration errors (unknown protocol, oracle mismatch)
  // before exploring — and ask the probe whether toggles commute, which
  // gates partial-order reduction.
  DYNVOTE_ASSIGN_OR_RETURN(std::unique_ptr<CheckHarness> probe,
                           FreshHarness(ex));
  ex.por_active = options.por && options.mode == CheckMode::kExhaustive &&
                  probe->TogglesCommute();
  ex.report.por_active = ex.por_active;
  probe.reset();

  const int jobs =
      options.jobs == 0 ? ThreadPool::DefaultThreads() : options.jobs;
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) {
    pool = std::make_unique<ThreadPool>(jobs);
    ex.pool = pool.get();
  }

  Status status = options.mode == CheckMode::kExhaustive ? RunExhaustive(&ex)
                                                         : RunSwarm(&ex);
  DYNVOTE_RETURN_NOT_OK(status);
  return std::move(ex.report);
}

}  // namespace check
}  // namespace dynvote
