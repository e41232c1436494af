#include "model/batched_experiment.h"

#include <bit>
#include <string>
#include <vector>

#include "core/dynamic_voting.h"
#include "core/mcv.h"
#include "core/quorum.h"
#include "model/sample_path.h"
#include "net/network_state.h"
#include "repl/message_bus.h"
#include "repl/replica_store.h"
#include "stats/tracker.h"
#include "util/logging.h"

namespace dynvote {

namespace {

// ---------------------------------------------------------------------------
// Protocol plans
// ---------------------------------------------------------------------------

/// The engine's protocol bitmasks are 32 bits wide.
constexpr int kMaxBatchedProtocols = 32;

enum class BatchedKind { kMcv, kDynamic };

/// A protocol reduced to the handful of flags the batched fast paths
/// need — the same flags the registry bakes into the real protocol
/// objects (see core/registry.cc).
struct ProtocolPlan {
  std::string name;
  BatchedKind kind = BatchedKind::kDynamic;
  TieBreak tie_break = TieBreak::kLexicographic;
  bool topological = false;
  bool optimistic = false;

  /// Mirrors ConsistencyProtocol::partition_safe(): the topological
  /// variants knowingly risk dual majorities, everything else must
  /// never produce one.
  bool partition_safe() const {
    return kind == BatchedKind::kMcv || !topological;
  }
};

bool PlanFor(const std::string& name, ProtocolPlan* plan) {
  plan->name = name;
  if (name == "MCV") {
    plan->kind = BatchedKind::kMcv;
    return true;
  }
  plan->kind = BatchedKind::kDynamic;
  if (name == "DV") {
    plan->tie_break = TieBreak::kNone;
    return true;
  }
  if (name == "LDV") return true;
  if (name == "ODV") {
    plan->optimistic = true;
    return true;
  }
  if (name == "TDV") {
    plan->topological = true;
    return true;
  }
  if (name == "OTDV") {
    plan->topological = true;
    plan->optimistic = true;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Per-object state
// ---------------------------------------------------------------------------

/// Dynamic-voting state of one protocol.
///
/// Steady state is "uniform": every copy holds the same (o, v, P)
/// ensemble, so the whole store collapses to three scalars and the
/// quorum test to popcount arithmetic. The real ReplicaStore is kept
/// alongside and re-materialized from the scalars the moment a commit
/// fails to cover the placement; from then on the exact
/// EvaluateDynamicQuorum path runs until a covering commit restores
/// uniformity. Decisions are identical in both modes — uniform mode is
/// the algebraic special case of the paper's rule when Q = S = R and
/// P_m is the full placement.
struct DvSlot {
  explicit DvSlot(ReplicaStore s) : store(std::move(s)) {}

  bool uniform = true;
  OpNumber u_op = 1;
  VersionNumber u_version = 1;
  SiteSet u_partition;          // == placement while uniform (invariant)
  ReplicaStore store;           // authoritative only while !uniform

  /// Monotonic count of decision-relevant state changes (commits that
  /// alter the store or the uniform partition set). Absolute op/version
  /// values never affect a quorum decision, so uniform-to-uniform
  /// commits deliberately do not bump it.
  std::uint64_t commit_stamp = 0;

  /// Divergent-mode analogue of the uniform invariant: after a commit
  /// with P = participants = all-copies(participants), every member of
  /// `local_set` carries identical (o, v, P = local_set) state. A later
  /// evaluation over exactly that group is then an unconditional grant
  /// with Q = S = R = P_m — the steady state of the majority side during
  /// a long partition — and reintegration over it is a no-op. Any commit
  /// rewrites these fields, so they can never go stale.
  bool local_valid = false;
  SiteSet local_set;
  OpNumber local_op = 0;
  VersionNumber local_version = 0;

  /// True when the authoritative (o, v) of local_set's members live in
  /// the scalars above and the store rows are stale: a repeat commit of
  /// the same locally uniform group changes nothing any evaluation can
  /// observe, so it only bumps the scalars. The rows are rewritten
  /// (EnsureMaterialized) before any code path reads the store again.
  bool local_dirty = false;
};

/// Flushes deferred scalar commits back into the store rows. Must run
/// before any store read (scan, state lookup, or a real Commit) while
/// local_dirty is set.
void EnsureMaterialized(DvSlot& slot) {
  if (!slot.local_dirty) return;
  for (SiteId s : slot.local_set) {
    ReplicaState* state = slot.store.mutable_state(s);
    state->op_number = slot.local_op;
    state->version = slot.local_version;
    state->partition_set = slot.local_set;
  }
  slot.local_dirty = false;
}

/// Availability/traffic accounting of one protocol.
struct ObservedSlot {
  explicit ObservedSlot(AvailabilityTracker t) : tracker(std::move(t)) {}

  AvailabilityTracker tracker;
  MessageCounter counter;
  std::uint64_t attempted = 0;
  std::uint64_t granted = 0;
  std::uint64_t dual_majority_instants = 0;

  /// Shadow of the tracker's last status. An available-while-available
  /// update only rewrites the tracker's last-update time, which no
  /// statistic depends on, so those calls are skipped. Unavailable
  /// updates always go through: the tracker accumulates outage time
  /// span-by-span and merging spans would change the floating-point
  /// sums.
  bool last_available = true;
};

/// One slot of the per-object sample memo: grant decisions for a copies
/// mask, one validity/decision bit per protocol. The equivalent of the
/// solo CachedWouldGrant ring, shared by all protocols of the object.
struct GroupMemoSlot {
  std::uint64_t mask = 0;
  std::uint32_t valid = 0;
  std::uint32_t granted = 0;
};

constexpr int kGroupMemoSlots = 8;

/// Outcome of one quorum evaluation, either mode. `quorum` and `current`
/// double as handles to the extremal replica states: every member of Q
/// carries MaxOp(R) and every member of S carries MaxVersion(R), so a
/// caller reads those maxima with one state lookup instead of a store
/// scan.
struct EvalResult {
  bool granted = false;
  SiteSet reachable;  // R ∩ placement
  SiteSet quorum;     // Q: reachable copies with the maximal op number
  SiteSet current;    // S
  SiteSet prev;       // P_m
  OpNumber max_op = 0;          // MaxOp(R), undefined if R is empty
  VersionNumber max_version = 0;  // MaxVersion(R), undefined if R is empty
};

/// Per-protocol evaluation memo. A quorum decision is a pure
/// function of (replica state, reachable-copies mask), and between
/// commits the same (state, mask) pair is evaluated repeatedly — user
/// access, the availability sample and the instantaneous refresh all ask
/// the same question. Two entries cover the common partitioned case of
/// one group per side. Validity is (mask, commit_stamp) equality, so a
/// commit or a membership change is an automatic miss.
struct DvEvalMemo {
  struct Entry {
    std::uint64_t mask = 0;
    std::uint64_t stamp = ~std::uint64_t{0};  // never matches a live slot
    EvalResult result;
  };
  Entry entries[2];
  int cursor = 0;
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Run-wide inputs every object reads: the measurement window, the
/// protocol plans and what the topology implies for them. Built once per
/// run and read-only while the objects run.
struct RunConfig {
  RunConfig(const ExperimentSpec& spec_in, SiteSet placement_in,
            std::vector<ProtocolPlan> plans_in, ReplicaStore initial_store_in)
      : spec(spec_in),
        placement(placement_in),
        plans(std::move(plans_in)),
        num_protocols(static_cast<int>(plans.size())),
        num_sites(spec_in.topology->num_sites()),
        horizon(spec_in.options.warmup +
                spec_in.options.batch_length * spec_in.options.num_batches),
        initial_store(std::move(initial_store_in)) {
    for (const ProtocolPlan& plan : plans) {
      if (plan.kind == BatchedKind::kDynamic && !plan.optimistic) {
        any_non_optimistic_dv = true;
      }
    }
    segment_mask.resize(static_cast<std::size_t>(num_sites));
    for (SiteId s = 0; s < num_sites; ++s) {
      segment_mask[static_cast<std::size_t>(s)] =
          spec.topology->SitesOnSegment(spec.topology->SegmentOf(s)).mask();
    }
  }

  const ExperimentSpec& spec;
  SiteSet placement;
  std::vector<ProtocolPlan> plans;
  int num_protocols;
  int num_sites;
  SimTime horizon;
  /// Some protocol refreshes membership on every network event.
  bool any_non_optimistic_dv = false;
  /// Per-site topological closure: all sites sharing the site's segment.
  std::vector<std::uint64_t> segment_mask;
  /// The paper's initial ensemble over the placement; every dynamic slot
  /// starts as a copy of it.
  ReplicaStore initial_store;
};

/// One object run from its seed to the horizon on its own event heap.
/// Built fresh for every seed, so no state can carry over from the
/// previous object.
class ObjectRun {
 public:
  ObjectRun(const RunConfig& cfg, std::uint64_t seed);

  /// Dispatches every event up to the horizon; one row per protocol.
  std::vector<PolicyResult> Run();

 private:
  ObservedSlot& observed(int p) {
    return observed_[static_cast<std::size_t>(p)];
  }
  DvSlot& dv(int p) { return dv_[static_cast<std::size_t>(p)]; }
  const ProtocolPlan& plan(int p) const {
    return cfg_.plans[static_cast<std::size_t>(p)];
  }

  // --- reactions to the sample path's events -------------------------------
  void NotifyNetworkEvent();
  void OnAccess(AccessType type);

  // --- protocol fast paths (exact ports of core/mcv.cc and
  // core/dynamic_voting.cc) ------------------------------------------------
  bool McvGranted(SiteSet copies) const;
  bool McvUserAccess(int p, AccessType type);
  EvalResult DvEvaluate(int p, SiteSet copies);
  void DvCommit(int p, SiteSet participants, OpNumber op,
                VersionNumber version, SiteSet partition);
  bool DvUserAccess(int p, AccessType type);
  bool DvRecover(int p, SiteId site);
  void DvReintegrateGroup(int p, SiteSet group);
  void DvOnNetworkEvent(int p);

  // --- sampling ----------------------------------------------------------
  GroupMemoSlot* MemoSlotFor(std::uint64_t mask);
  void InvalidateMemo(int p, std::uint64_t touched_mask);
  void Sample();

  /// True iff the object is in the all-fast steady state: every dynamic
  /// slot uniform and every copy in one communicating group. In that
  /// state each protocol's response to an access or a network event is a
  /// fixed pattern and the per-protocol evaluate/commit machinery can be
  /// skipped wholesale.
  bool Steady() const {
    return divergent_count_ == 0 && path_.net().FullyConnected(cfg_.placement);
  }

  /// Brings every tracker to "available". A no-op when the previous
  /// sample already reported all-available — an available→available
  /// Update only rewrites the tracker's last-update time, which no
  /// statistic depends on.
  void MarkAllAvailable() {
    if (all_available_) return;
    for (ObservedSlot& obs : observed_) {
      if (!obs.last_available) {
        obs.tracker.Update(path_.now(), true);
        obs.last_available = true;
      }
    }
    all_available_ = true;
  }

  const RunConfig& cfg_;
  /// The failure, maintenance and access processes; the only source of
  /// events and of network changes.
  SamplePath path_;

  // Per protocol.
  std::vector<ObservedSlot> observed_;
  std::vector<DvSlot> dv_;
  std::vector<DvEvalMemo> eval_memo_;  // indexed like dv_

  GroupMemoSlot memo_[kGroupMemoSlots] = {};
  int memo_cursor_ = 0;
  /// Number of dynamic slots currently out of uniform mode; 0 is a
  /// precondition of the steady-state fast path.
  int divergent_count_ = 0;
  /// True while every tracker last reported "available": steady-state
  /// events may then skip the tracker updates entirely.
  bool all_available_ = true;
  /// Steady-state event tallies, materialized into the message counters
  /// and access totals once at the end of the run — the per-event
  /// deltas of a steady access/notify are fixed patterns, and counter
  /// addition commutes with the slow paths' direct increments.
  std::uint64_t steady_reads_ = 0;
  std::uint64_t steady_writes_ = 0;
  std::uint64_t steady_notifies_ = 0;
};

ObjectRun::ObjectRun(const RunConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), path_(cfg.spec, cfg.placement, seed) {
  const ExperimentOptions& o = cfg.spec.options;
  observed_.reserve(static_cast<std::size_t>(cfg.num_protocols));
  dv_.reserve(static_cast<std::size_t>(cfg.num_protocols));
  for (int p = 0; p < cfg.num_protocols; ++p) {
    observed_.emplace_back(
        AvailabilityTracker(o.warmup, o.batch_length, o.num_batches));
    dv_.emplace_back(cfg.initial_store);
    dv_.back().u_partition = cfg.placement;
  }
  eval_memo_.resize(static_cast<std::size_t>(cfg.num_protocols));
}

// --- reactions to the sample path ------------------------------------------

void ObjectRun::NotifyNetworkEvent() {
  // experiment.cc on_change: every protocol's OnNetworkEvent (a no-op
  // for MCV and the optimistic variants), then one sample.
  if (Steady()) {
    // All copies in one group, every slot uniform: each instantaneous
    // protocol refreshes its (single) group and concludes membership is
    // current; the sample finds exactly one granted group per protocol.
    // The refresh traffic is a fixed pattern tallied for the end of the
    // run, and when every tracker already reads "available" the sample
    // would not change any of them.
    ++steady_notifies_;
    MarkAllAvailable();
    return;
  }
  if (cfg_.any_non_optimistic_dv) {
    for (int p = 0; p < cfg_.num_protocols; ++p) {
      if (plan(p).kind == BatchedKind::kDynamic && !plan(p).optimistic) {
        DvOnNetworkEvent(p);
      }
    }
  }
  Sample();
}

void ObjectRun::OnAccess(AccessType type) {
  if (Steady()) {
    // Every protocol grants in its one full group: MCV has its static
    // majority, each dynamic variant finds Q = S = R = P_m. The message
    // pattern and access totals are fixed and tallied for the end of
    // the run; only the dynamic scalars must stay current (slow paths
    // read them), and covering commits keep the sample memo valid.
    const bool write = type == AccessType::kWrite;
    if (write) {
      ++steady_writes_;
    } else {
      ++steady_reads_;
    }
    for (int p = 0; p < cfg_.num_protocols; ++p) {
      if (plan(p).kind == BatchedKind::kMcv) continue;
      DvSlot& slot = dv(p);
      slot.u_op += 1;
      if (write) slot.u_version += 1;
    }
    MarkAllAvailable();
  } else {
    for (int p = 0; p < cfg_.num_protocols; ++p) {
      ObservedSlot& obs = observed(p);
      ++obs.attempted;
      bool granted = plan(p).kind == BatchedKind::kMcv
                         ? McvUserAccess(p, type)
                         : DvUserAccess(p, type);
      if (granted) ++obs.granted;
    }
    Sample();
  }
}

// --- MCV fast path --------------------------------------------------------

bool ObjectRun::McvGranted(SiteSet copies) const {
  // MCV::WouldGrant with uniform weights and default quorums
  // (r = w = total/2 + 1, lexicographic tie-break): the decision is a
  // pure function of the reachable-copies mask, so it can be memoized
  // forever — MCV never mutates decision-relevant state.
  const int total = cfg_.placement.Size();
  const int votes = copies.Size();
  if (votes >= total / 2 + 1) return true;
  return 2 * votes == total && copies.Contains(cfg_.placement.RankMax());
}

bool ObjectRun::McvUserAccess(int p, AccessType type) {
  ObservedSlot& obs = observed(p);
  for (const SiteSet& group : path_.net().Components()) {
    SiteSet copies = group.Intersect(cfg_.placement);
    if (copies.Empty()) continue;
    if (!McvGranted(copies)) continue;
    // MCV::Access: probe the whole replication set, then exchange state
    // with the reachable copies; writes additionally commit.
    obs.counter.Add(MessageKind::kProbe, cfg_.placement.Size());
    obs.counter.Add(MessageKind::kProbeReply, copies.Size());
    obs.counter.Add(MessageKind::kStateRequest, copies.Size());
    obs.counter.Add(MessageKind::kStateReply, copies.Size());
    if (type == AccessType::kWrite) {
      obs.counter.Add(MessageKind::kCommit, copies.Size());
    }
    return true;
  }
  return false;  // no quorum anywhere: no messages, like the solo path
}

// --- dynamic-voting fast path ---------------------------------------------

EvalResult ObjectRun::DvEvaluate(int p, SiteSet copies) {
  const ProtocolPlan& pl = plan(p);
  DvSlot& slot = dv(p);
  EvalResult r;
  r.reachable = copies;
  if (copies.Empty()) return r;

  if (slot.uniform) {
    // All copies share one ensemble, so Q = S = R and P_m is the stored
    // partition set (the full placement, by the uniform invariant).
    // Cheap enough to compute inline; deliberately not memoized — the
    // memo's stamp does not track the uniform o/v scalars, and a stale
    // max_op would corrupt the operation-number chain.
    r.quorum = copies;
    r.current = copies;
    r.prev = slot.u_partition;
    r.max_op = slot.u_op;
    r.max_version = slot.u_version;
    SiteSet counted = copies;
    if (pl.topological) {
      // Topological closure: members of P_m on a segment that also
      // carries a reachable member of P_m count as present.
      SiteSet active = slot.u_partition.Intersect(copies);
      std::uint64_t segments = 0;
      for (SiteId s : active) {
        segments |= cfg_.segment_mask[static_cast<std::size_t>(s)];
      }
      counted = SiteSet::FromMask(slot.u_partition.mask() & segments);
    }
    const int counted_weight = counted.Size();
    const int block_weight = slot.u_partition.Size();
    if (2 * counted_weight > block_weight) {
      r.granted = true;
    } else if (2 * counted_weight == block_weight) {
      r.granted = pl.tie_break == TieBreak::kLexicographic &&
                  !slot.u_partition.Empty() &&
                  copies.Contains(slot.u_partition.RankMax());
    }
    return r;
  }

  if (slot.local_valid && copies == slot.local_set) {
    // Locally uniform sub-ensemble: every reachable copy carries the
    // maximal (o, v) and P_m = local_set = R, so Q = S = R = P_m and the
    // majority test is 2|P_m| > |P_m| — granted without touching the
    // store. This is the hot state of the majority side between
    // consecutive accesses during a partition.
    r.granted = true;
    r.quorum = copies;
    r.current = copies;
    r.prev = copies;
    r.max_op = slot.local_op;
    r.max_version = slot.local_version;
    return r;
  }

  DvEvalMemo& memo = eval_memo_[static_cast<std::size_t>(p)];
  for (const DvEvalMemo::Entry& e : memo.entries) {
    if (e.mask == copies.mask() && e.stamp == slot.commit_stamp) {
      return e.result;
    }
  }

  EnsureMaterialized(slot);
  QuorumDecision d = EvaluateDynamicQuorum(
      slot.store, copies, pl.tie_break,
      pl.topological ? cfg_.spec.topology.get() : nullptr);
  r.granted = d.granted;
  r.quorum = d.quorum_set;
  r.current = d.current_set;
  r.prev = d.prev_partition;
  r.max_op = slot.store.state(d.quorum_set.RankMax()).op_number;
  r.max_version = slot.store.state(d.current_set.RankMax()).version;

  DvEvalMemo::Entry& victim = memo.entries[memo.cursor];
  memo.cursor ^= 1;
  victim.mask = copies.mask();
  victim.stamp = slot.commit_stamp;
  victim.result = r;
  return r;
}

void ObjectRun::DvCommit(int p, SiteSet participants, OpNumber op,
                         VersionNumber version, SiteSet partition) {
  DvSlot& slot = dv(p);
  DvEvalMemo& memo = eval_memo_[static_cast<std::size_t>(p)];
  const bool covers = cfg_.placement.IsSubsetOf(participants);
  if (slot.uniform) {
    if (covers) {
      // Uniform stays uniform. The partition set is the placement before
      // and after (every covering DV commit installs P = participants =
      // placement), and grant decisions do not depend on the absolute
      // o/v values — the memo stays valid.
      slot.u_op = op;
      slot.u_version = version;
      if (partition != slot.u_partition) {
        // Cannot happen for the paper's protocols (covering commits
        // always install P = placement), but a changed partition set
        // does change decisions — drop the memos if it ever does.
        slot.u_partition = partition;
        ++slot.commit_stamp;
        InvalidateMemo(p, ~std::uint64_t{0});
      }
      return;
    }
    // Leaving uniform mode: materialize the store the scalars stand for,
    // then apply the divergent commit to it.
    for (SiteId s : cfg_.placement) {
      ReplicaState* state = slot.store.mutable_state(s);
      state->op_number = slot.u_op;
      state->version = slot.u_version;
      state->partition_set = slot.u_partition;
    }
    slot.uniform = false;
    ++divergent_count_;
  } else if (slot.local_valid && participants == slot.local_set &&
             partition == participants) {
    // Repeat commit of the locally uniform group (consecutive accesses
    // on the majority side of a partition): the group's members move to
    // the new (o, v) together and P_m stays local_set, so no evaluation
    // anywhere can observe a difference — every grant decision depends
    // on relative order and membership only. Bump the scalars and leave
    // the store rows stale; they are rewritten before the next store
    // read. Cached maxima for masks overlapping the group DO go stale,
    // so those memo entries are dropped (disjoint ones — the other side
    // of the partition — survive, which is the point).
    slot.local_op = op;
    slot.local_version = version;
    slot.local_dirty = true;
    const std::uint64_t local_mask = slot.local_set.mask();
    for (DvEvalMemo::Entry& e : memo.entries) {
      if (e.mask & local_mask) e.stamp = ~std::uint64_t{0};
    }
    return;
  }
  EnsureMaterialized(slot);
  slot.store.Commit(participants, op, version, partition);
  if (covers) {
    // Back to uniform: the covering commit overwrote every copy.
    slot.uniform = true;
    slot.u_op = op;
    slot.u_version = version;
    slot.u_partition = partition;
    slot.local_valid = false;
    slot.local_dirty = false;
    --divergent_count_;
  } else {
    slot.local_set = slot.store.CopiesAmong(participants);
    slot.local_valid =
        partition == participants && slot.local_set == participants;
    slot.local_op = op;
    slot.local_version = version;
    slot.local_dirty = false;  // the real Commit above wrote the rows
  }

  // The commit rewrote exactly the participants' states. Memo entries
  // for disjoint groups (the other side of a partition) survive; their
  // stamp is refreshed so they remain hits under the new stamp.
  const std::uint64_t touched = participants.mask();
  const std::uint64_t old_stamp = slot.commit_stamp++;
  for (DvEvalMemo::Entry& e : memo.entries) {
    if (e.stamp == old_stamp && (e.mask & touched) == 0) {
      e.stamp = slot.commit_stamp;
    }
  }
  InvalidateMemo(p, touched);
}

bool ObjectRun::DvUserAccess(int p, AccessType type) {
  // DynamicVoting::UserAccess + Access, fused: find the first granted
  // group, charge the Access message pattern, commit, reintegrate.
  ObservedSlot& obs = observed(p);
  for (const SiteSet& group : path_.net().Components()) {
    SiteSet copies = group.Intersect(cfg_.placement);
    if (copies.Empty()) continue;
    EvalResult d = DvEvaluate(p, copies);
    if (!d.granted) continue;

    obs.counter.Add(MessageKind::kProbe, cfg_.placement.Size());
    obs.counter.Add(MessageKind::kProbeReply, copies.Size());
    obs.counter.Add(MessageKind::kStateRequest, copies.Size());
    obs.counter.Add(MessageKind::kStateReply, copies.Size());

    const OpNumber op = d.max_op + 1;
    const VersionNumber version =
        d.max_version + (type == AccessType::kWrite ? 1 : 0);
    DvCommit(p, d.current, op, version, d.current);
    obs.counter.Add(MessageKind::kCommit, d.current.Size());
    DvReintegrateGroup(p, copies);
    return true;
  }
  return false;  // NoQuorum: no messages
}

bool ObjectRun::DvRecover(int p, SiteId site) {
  ObservedSlot& obs = observed(p);
  SiteSet copies = path_.net().ComponentOf(site).Intersect(cfg_.placement);
  EvalResult d = DvEvaluate(p, copies);
  if (!d.granted) {
    obs.counter.Add(MessageKind::kAbort, d.reachable.Size());
    return false;
  }
  DvSlot& slot = dv(p);
  const OpNumber op = d.max_op + 1;
  const VersionNumber version = d.max_version;
  // While uniform, the site's row logically carries the uniform scalars.
  // While locally dirty the stale rows are exactly local_set's — whose
  // members all carry the maximal op and are never the recovery target —
  // so the direct read is safe either way.
  const VersionNumber site_version =
      slot.uniform ? slot.u_version : slot.store.state(site).version;
  if (site_version < version) obs.counter.Add(MessageKind::kFileCopy, 1);
  SiteSet participants = d.current.Union(SiteSet{site});
  DvCommit(p, participants, op, version, participants);
  obs.counter.Add(MessageKind::kCommit, participants.Size());
  return true;
}

void ObjectRun::DvReintegrateGroup(int p, SiteSet group) {
  DvSlot& slot = dv(p);
  // In uniform mode every copy already carries the maximal operation
  // number — reintegration is a no-op by definition.
  if (slot.uniform) return;
  SiteSet copies = slot.store.CopiesAmong(group);
  // Locally uniform group: every copy already carries the maximal op
  // number (the definition of local_set), so the scan below would find
  // nothing to recover.
  if (slot.local_valid && copies == slot.local_set) return;
  EnsureMaterialized(slot);
  // MaxOp over the group only moves when a recover commits (it can raise
  // the bar for the rest, exactly as in DynamicVoting); between recovers
  // the cached value is exact.
  OpNumber max_op = slot.store.MaxOp(copies);
  for (SiteId s : copies) {
    if (slot.store.state(s).op_number < max_op) {
      bool ok = DvRecover(p, s);
      DYNVOTE_CHECK_MSG(ok,
                        "reintegration inside a granted group must succeed");
      if (slot.uniform) return;  // a covering recover re-uniformized
      max_op = slot.store.MaxOp(copies);
    }
  }
}

void ObjectRun::DvOnNetworkEvent(int p) {
  // The instantaneous variants refresh state in every group on every
  // network event (the paper's "connection vector" cost).
  ObservedSlot& obs = observed(p);
  for (const SiteSet& group : path_.net().Components()) {
    SiteSet copies = group.Intersect(cfg_.placement);
    if (copies.Empty()) continue;
    obs.counter.Add(MessageKind::kInstantRefresh, 2 * copies.Size());
    DvSlot& slot = dv(p);
    if (slot.uniform && copies == slot.u_partition) {
      // Membership is necessarily current: S = R = P_m. Skip the
      // evaluate; the solo path reaches the same no-op conclusion.
      continue;
    }
    EvalResult d = DvEvaluate(p, copies);
    if (!d.granted) continue;
    const bool membership_current = d.current == d.prev && copies == d.current;
    if (membership_current) continue;
    DvCommit(p, d.current, d.max_op + 1, d.max_version, d.current);
    obs.counter.Add(MessageKind::kCommit, d.current.Size());
    DvReintegrateGroup(p, copies);
  }
}

// --- sampling -------------------------------------------------------------

GroupMemoSlot* ObjectRun::MemoSlotFor(std::uint64_t mask) {
  for (GroupMemoSlot& slot : memo_) {
    if (slot.mask == mask) return &slot;
  }
  GroupMemoSlot& victim = memo_[memo_cursor_];
  memo_cursor_ = (memo_cursor_ + 1) % kGroupMemoSlots;
  victim = GroupMemoSlot{mask, 0, 0};
  return &victim;
}

void ObjectRun::InvalidateMemo(int p, std::uint64_t touched_mask) {
  // A quorum evaluation over group G reads only the states of G's
  // members, so a commit invalidates exactly the slots whose group
  // intersects the committed participants. During a partition the
  // majority side's commits leave the minority side's cached denial
  // untouched.
  const std::uint32_t clear = ~(std::uint32_t{1} << p);
  for (GroupMemoSlot& slot : memo_) {
    if (slot.mask & touched_mask) slot.valid &= clear;
  }
}

void ObjectRun::Sample() {
  // Per-protocol grant tallies as bitmasks: `once` has protocol p's bit
  // if any group granted, `twice` if a second group did (the
  // dual-majority case). Two words replace a zeroed per-protocol array.
  std::uint32_t once = 0;
  std::uint32_t twice = 0;
  for (const SiteSet& group : path_.net().Components()) {
    SiteSet copies = group.Intersect(cfg_.placement);
    if (copies.Empty()) continue;
    GroupMemoSlot* slot = MemoSlotFor(copies.mask());
    std::uint32_t group_granted = slot->granted & slot->valid;
    std::uint32_t missing =
        ~slot->valid & ((std::uint32_t{1} << cfg_.num_protocols) - 1);
    while (missing != 0) {
      const int p = std::countr_zero(missing);
      const std::uint32_t bit = std::uint32_t{1} << p;
      missing &= missing - 1;
      const bool granted = plan(p).kind == BatchedKind::kMcv
                               ? McvGranted(copies)
                               : DvEvaluate(p, copies).granted;
      slot->valid |= bit;
      if (granted) {
        slot->granted |= bit;
        group_granted |= bit;
      } else {
        slot->granted &= ~bit;
      }
    }
    twice |= once & group_granted;
    once |= group_granted;
  }
  bool all_available = true;
  for (int p = 0; p < cfg_.num_protocols; ++p) {
    ObservedSlot& obs = observed(p);
    const std::uint32_t bit = std::uint32_t{1} << p;
    if (twice & bit) {
      ++obs.dual_majority_instants;
      if (cfg_.spec.options.check_mutual_exclusion && plan(p).partition_safe()) {
        DYNVOTE_CHECK_MSG(
            (twice & bit) == 0,
            "two disjoint majority partitions (batched engine): " +
                plan(p).name + " at t=" + std::to_string(path_.now()));
      }
    }
    const bool available = (once & bit) != 0;
    // Available-while-available updates only rewrite the tracker's
    // last-update time; skip them. Unavailable spans must still be fed
    // update-by-update so the outage accumulation sums in the same
    // floating-point order as the solo engine.
    if (!(available && obs.last_available)) {
      obs.tracker.Update(path_.now(), available);
      obs.last_available = available;
    }
    all_available = all_available && available;
  }
  all_available_ = all_available;
}

// --- top level ------------------------------------------------------------

std::vector<PolicyResult> ObjectRun::Run() {
  // The solo engine's loop without the trace stamping: the batched
  // engine reacts to exactly the events a solo run reacts to.
  while (path_.Advance(cfg_.horizon)) {
    const PathEvent event = path_.Apply();
    if (event.kind == PathEvent::Kind::kAccess) {
      OnAccess(event.type);
    } else {
      NotifyNetworkEvent();
    }
  }

  // Materialize the steady-state tallies: every steady access charged
  // each protocol the full-group message pattern and counted as a
  // granted attempt; every steady network event charged each
  // instantaneous protocol one full-group refresh.
  const std::uint64_t total = static_cast<std::uint64_t>(cfg_.placement.Size());
  const std::uint64_t accesses = steady_reads_ + steady_writes_;
  std::vector<PolicyResult> rows;
  rows.reserve(static_cast<std::size_t>(cfg_.num_protocols));
  for (int p = 0; p < cfg_.num_protocols; ++p) {
    ObservedSlot& obs = observed(p);
    const ProtocolPlan& pl = plan(p);
    obs.attempted += accesses;
    obs.granted += accesses;
    obs.counter.Add(MessageKind::kProbe, total * accesses);
    obs.counter.Add(MessageKind::kProbeReply, total * accesses);
    obs.counter.Add(MessageKind::kStateRequest, total * accesses);
    obs.counter.Add(MessageKind::kStateReply, total * accesses);
    if (pl.kind == BatchedKind::kMcv) {
      obs.counter.Add(MessageKind::kCommit, total * steady_writes_);
    } else {
      obs.counter.Add(MessageKind::kCommit, total * accesses);
      if (!pl.optimistic) {
        obs.counter.Add(MessageKind::kInstantRefresh,
                        2 * total * steady_notifies_);
      }
    }

    obs.tracker.Finish(cfg_.horizon);
    PolicyResult r;
    r.name = pl.name;
    r.unavailability = obs.tracker.Unavailability();
    r.stats = obs.tracker.Stats();
    r.mean_unavailable_duration = obs.tracker.MeanUnavailableDuration();
    r.num_unavailable_periods = obs.tracker.NumUnavailablePeriods();
    r.accesses_attempted = obs.attempted;
    r.accesses_granted = obs.granted;
    r.messages = obs.counter;
    r.measured_time = obs.tracker.TotalTime();
    r.dual_majority_instants = obs.dual_majority_instants;
    r.time_to_first_outage = obs.tracker.TimeToFirstOutage();
    rows.push_back(std::move(r));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Engine selection
// ---------------------------------------------------------------------------

/// True iff every copy in `store` still holds the paper's initial
/// ensemble (o = v = 1, P = placement), which is where every batched
/// object starts.
bool StoreIsInitial(const ReplicaStore& store) {
  const ReplicaState initial{1, 1, store.placement()};
  for (SiteId s : store.placement()) {
    if (!(store.state(s) == initial)) return false;
  }
  return true;
}

/// The registry name of the batched plan that reproduces `p` exactly, or
/// "" when `p` carries anything the plans do not model. Every option the
/// plans hard-wire (see PlanFor and the fast paths above) is checked here.
std::string StockPolicyName(const ConsistencyProtocol& p,
                            const Topology* topology) {
  if (const auto* mcv = dynamic_cast<const MajorityConsensusVoting*>(&p)) {
    // McvGranted assumes unit votes, r = w = majority and the
    // lexicographic tie rule.
    const bool stock = mcv->weights().IsUniform() &&
                       mcv->tie_break() == TieBreak::kLexicographic &&
                       !mcv->explicit_quorums() &&
                       StoreIsInitial(mcv->store());
    return stock && mcv->name() == "MCV" ? "MCV" : "";
  }
  const auto* dv = dynamic_cast<const DynamicVoting*>(&p);
  if (dv == nullptr) return "";
  const DynamicVotingOptions& o = dv->options();
  if (!o.weights.IsUniform() || !o.witnesses.Empty() ||
      &dv->topology() != topology || !StoreIsInitial(dv->store())) {
    return "";
  }
  // The five flag combinations PlanFor knows; DV alone fails ties.
  std::string name;
  if (o.tie_break == TieBreak::kNone) {
    if (o.topological || o.optimistic) return "";
    name = "DV";
  } else if (o.topological) {
    name = o.optimistic ? "OTDV" : "TDV";
  } else {
    name = o.optimistic ? "ODV" : "LDV";
  }
  return dv->name() == name ? name : "";
}

}  // namespace

bool BatchedEngineSupports(const std::vector<std::string>& policies) {
  if (policies.empty() ||
      policies.size() > static_cast<std::size_t>(kMaxBatchedProtocols)) {
    return false;
  }
  ProtocolPlan plan;
  for (const std::string& name : policies) {
    if (!PlanFor(name, &plan)) return false;
  }
  return true;
}

std::optional<BatchedProtocolSpec> BatchedPlanFor(
    const ExperimentSpec& spec,
    const std::vector<std::unique_ptr<ConsistencyProtocol>>& protocols) {
  if (spec.obs != nullptr || spec.options.serving.enabled ||
      !spec.options.quorum_cache || spec.topology == nullptr ||
      protocols.empty()) {
    return std::nullopt;
  }
  BatchedProtocolSpec plan;
  plan.placement = protocols.front()->placement();
  if (plan.placement.Empty() ||
      !plan.placement.IsSubsetOf(spec.topology->AllSites())) {
    return std::nullopt;
  }
  for (const auto& p : protocols) {
    if (p->placement() != plan.placement || p->has_commit_hook() ||
        p->obs() != nullptr || p->counter()->Total() != 0) {
      return std::nullopt;
    }
    std::string name = StockPolicyName(*p, spec.topology.get());
    if (name.empty()) return std::nullopt;
    plan.policies.push_back(std::move(name));
  }
  if (!BatchedEngineSupports(plan.policies)) return std::nullopt;
  return plan;
}

Result<std::vector<std::vector<PolicyResult>>>
RunBatchedAvailabilityExperiment(const ExperimentSpec& spec,
                                 const BatchedProtocolSpec& protocols,
                                 const std::vector<std::uint64_t>& seeds) {
  if (spec.obs != nullptr) {
    return Status::InvalidArgument(
        "the batched engine is observability-free; route traced runs "
        "through RunSoloAvailabilityExperiment");
  }
  if (spec.options.serving.enabled) {
    return Status::InvalidArgument(
        "the batched engine has no serving model; route serving runs "
        "through RunSoloAvailabilityExperiment");
  }
  if (protocols.policies.empty()) {
    return Status::InvalidArgument("experiment needs at least one protocol");
  }
  if (!BatchedEngineSupports(protocols.policies)) {
    return Status::InvalidArgument(
        "policy set not supported by the batched engine");
  }
  // The same validation RunSoloAvailabilityExperiment runs, so both
  // engines reject the same inputs with the same Status.
  DYNVOTE_RETURN_NOT_OK(SamplePath::Validate(spec, protocols.placement));
  if (protocols.placement.Empty() ||
      !protocols.placement.IsSubsetOf(spec.topology->AllSites())) {
    return Status::InvalidArgument(
        "placement must be a non-empty subset of the topology's sites");
  }
  if (seeds.empty()) {
    return Status::InvalidArgument("batched run needs at least one seed");
  }

  std::vector<ProtocolPlan> plans(protocols.policies.size());
  for (std::size_t i = 0; i < protocols.policies.size(); ++i) {
    if (!PlanFor(protocols.policies[i], &plans[i])) {
      return Status::InvalidArgument("policy set not supported");
    }
  }

  auto initial_store = ReplicaStore::Make(protocols.placement);
  if (!initial_store.ok()) return initial_store.status();
  const RunConfig cfg(spec, protocols.placement, std::move(plans),
                      initial_store.MoveValue());

  // One object at a time, each on its own heap: objects share nothing
  // but the run config, so running them back to back is the same as
  // interleaving them.
  std::vector<std::vector<PolicyResult>> results;
  results.reserve(seeds.size());
  for (std::uint64_t seed : seeds) results.push_back(ObjectRun(cfg, seed).Run());
  return results;
}

}  // namespace dynvote
