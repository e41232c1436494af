#include "model/batched_experiment.h"

#include <algorithm>
#include <bit>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/dynamic_voting.h"
#include "core/dynamic_voting_rules.h"
#include "core/mcv.h"
#include "core/registry.h"
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

bool IsPaperPolicy(const std::string& name) {
  const std::vector<std::string>& paper = PaperProtocolNames();
  return std::find(paper.begin(), paper.end(), name) != paper.end();
}

/// A policy as the registry builds it over the run's placement. The
/// engine never runs this object: it reads its configuration, and runs
/// its rules over each object's own replica state.
struct ProtocolPlan {
  explicit ProtocolPlan(std::unique_ptr<ConsistencyProtocol> made)
      : stock(std::move(made)),
        mcv(dynamic_cast<const MajorityConsensusVoting*>(stock.get())),
        dv(dynamic_cast<const DynamicVoting*>(stock.get())) {
    if (dv != nullptr && dv->options().topological) {
      vote_topology = &dv->topology();
    }
  }

  /// Refreshes on every network event (DV, LDV, TDV).
  bool instantaneous() const {
    return dv != nullptr && !dv->options().optimistic;
  }

  std::unique_ptr<ConsistencyProtocol> stock;
  /// Exactly one is set: the static protocol whose rule and access
  /// charge decide, or the dynamic one whose options the shared
  /// Algorithm 1 reactions run with.
  const MajorityConsensusVoting* mcv = nullptr;
  const DynamicVoting* dv = nullptr;
  /// The topology the dynamic quorum test counts segments over, or null.
  const Topology* vote_topology = nullptr;
};

// ---------------------------------------------------------------------------
// Per-object state
// ---------------------------------------------------------------------------

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

  /// Copies of the group that granted the last access (0 if it was
  /// denied): the group every repeat of that access is granted in.
  std::uint64_t repeat_copies = 0;
};

/// Reads and writes among a run of repeated accesses.
struct RepeatTally {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

  void Add(AccessType type) {
    ++(type == AccessType::kWrite ? writes : reads);
  }
  std::uint64_t Total() const { return reads + writes; }
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
        all_protocols(num_protocols == kMaxBatchedProtocols
                          ? ~std::uint32_t{0}
                          : (std::uint32_t{1} << num_protocols) - 1),
        horizon(spec_in.options.warmup +
                spec_in.options.batch_length * spec_in.options.num_batches),
        initial_store(std::move(initial_store_in)) {
    for (const ProtocolPlan& plan : plans) {
      any_instantaneous = any_instantaneous || plan.instantaneous();
    }
  }

  const ExperimentSpec& spec;
  SiteSet placement;
  std::vector<ProtocolPlan> plans;
  int num_protocols;
  /// One bit per protocol (the width of the engine's protocol masks).
  std::uint32_t all_protocols;
  SimTime horizon;
  /// Some protocol refreshes membership on every network event.
  bool any_instantaneous = false;
  /// The paper's initial ensemble over the placement; every protocol's
  /// store starts as a copy of it.
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
  ReplicaStore& store(int p) { return stores_[static_cast<std::size_t>(p)]; }
  const ReplicaStore& store(int p) const {
    return stores_[static_cast<std::size_t>(p)];
  }
  const ProtocolPlan& plan(int p) const {
    return cfg_.plans[static_cast<std::size_t>(p)];
  }

  // --- reactions to the sample path's events -------------------------------
  void NotifyNetworkEvent();
  void OnAccess(AccessType type);
  void DrainRepeats(RepeatTally tally);
  void ChargeRepeats(const RepeatTally& tally);

  // --- protocol reactions: MCV's own rule and access charge, and the
  // shared Algorithm 1 reactions over a plain host -------------------------
  SiteSet McvUserAccess(int p, AccessType type);
  dv_rules::PlainHost Host(int p) {
    const ProtocolPlan& pl = plan(p);
    return {store(p), observed(p).counter, pl.dv->options(),
            pl.vote_topology};
  }
  /// Re-derives protocol p's divergent_ bit once its store may have
  /// moved.
  void NoteStore(int p) {
    const std::uint32_t bit = std::uint32_t{1} << p;
    divergent_ = store(p).UniformOver(cfg_.placement) ? divergent_ & ~bit
                                                      : divergent_ | bit;
  }

  // --- sampling ----------------------------------------------------------
  void Sample();

  /// True iff the object is in the all-fast steady state: every store
  /// uniform over the placement and every copy in one communicating
  /// group. In that state each protocol's response to an access or a
  /// network event is a fixed pattern and the per-protocol
  /// evaluate/commit machinery can be skipped wholesale.
  bool Steady() const {
    return divergent_ == 0 && path_.net().FullyConnected(cfg_.placement);
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
  /// Algorithm 1's replica state, the only state decisions read (an MCV
  /// protocol's store stays initial).
  std::vector<ReplicaStore> stores_;

  /// The last sample's grant bits: `sampled_once_` has protocol p's bit
  /// if some group granted, `sampled_twice_` if a second one did.
  std::uint32_t sampled_once_ = 0;
  std::uint32_t sampled_twice_ = 0;
  /// Protocol p's bit is set while its store is not uniform over the
  /// placement; 0 is a precondition of the steady-state fast path.
  std::uint32_t divergent_ = 0;
  /// True while every tracker last reported "available": steady-state
  /// events may then skip the tracker updates entirely.
  bool all_available_ = true;
  /// Steady-state network events, materialized into the refresh counters
  /// once at the end of the run — the per-event delta of a steady notify
  /// is a fixed pattern, and counter addition commutes with the slow
  /// paths' direct increments.
  std::uint64_t steady_notifies_ = 0;
};

ObjectRun::ObjectRun(const RunConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      path_(cfg.spec, cfg.placement, seed),
      stores_(static_cast<std::size_t>(cfg.num_protocols), cfg.initial_store) {
  const ExperimentOptions& o = cfg.spec.options;
  observed_.reserve(static_cast<std::size_t>(cfg.num_protocols));
  for (int p = 0; p < cfg.num_protocols; ++p) {
    observed_.emplace_back(
        AvailabilityTracker(o.warmup, o.batch_length, o.num_batches));
  }
}

// --- reactions to the sample path ------------------------------------------

void ObjectRun::NotifyNetworkEvent() {
  // experiment.cc on_change: every protocol's OnNetworkEvent (a no-op
  // for MCV and the optimistic variants), then one sample.
  if (Steady()) {
    // All copies in one group, every store uniform: each instantaneous
    // protocol refreshes its (single) group and concludes membership is
    // current; the sample finds exactly one granted group per protocol.
    // The refresh traffic is a fixed pattern tallied for the end of the
    // run, and when every tracker already reads "available" the sample
    // would not change any of them.
    ++steady_notifies_;
    MarkAllAvailable();
    return;
  }
  if (cfg_.any_instantaneous) {
    for (int p = 0; p < cfg_.num_protocols; ++p) {
      if (!plan(p).instantaneous()) continue;
      dv_rules::PlainHost host = Host(p);
      dv_rules::Refresh(host, path_.net());
      NoteStore(p);
    }
  }
  Sample();
}

void ObjectRun::OnAccess(AccessType type) {
  RepeatTally tally;
  if (Steady()) {
    // Every protocol grants in its one full group: MCV has its static
    // majority, each dynamic variant finds Q = S = R = P_m. That is the
    // repeat pattern already, so this access is charged with its
    // repeats.
    for (ObservedSlot& obs : observed_) {
      obs.repeat_copies = cfg_.placement.mask();
    }
    sampled_once_ = cfg_.all_protocols;
    sampled_twice_ = 0;
    tally.Add(type);
    MarkAllAvailable();
  } else {
    for (int p = 0; p < cfg_.num_protocols; ++p) {
      ObservedSlot& obs = observed(p);
      ++obs.attempted;
      SiteSet copies;
      if (plan(p).mcv != nullptr) {
        copies = McvUserAccess(p, type);
      } else {
        dv_rules::PlainHost host = Host(p);
        copies = dv_rules::UserAccess(host, path_.net(), type).copies;
        NoteStore(p);
      }
      if (!copies.Empty()) ++obs.granted;
      obs.repeat_copies = copies.mask();
    }
    Sample();
  }
  DrainRepeats(tally);
}

void ObjectRun::DrainRepeats(RepeatTally tally) {
  // Until the next network event every access repeats the one just
  // handled: the network is unchanged, and the access left each protocol
  // where the same access finds the same answer (see ChargeRepeats). Only
  // the outage spans need each access's time — an unavailable tracker is
  // fed span by span, as Sample() would.
  const std::uint32_t unavailable = cfg_.all_protocols & ~sampled_once_;
  path_.DrainWorkload(cfg_.horizon, [&](SimTime t, AccessType type, SiteId) {
    tally.Add(type);
    for (std::uint32_t bits = unavailable; bits != 0; bits &= bits - 1) {
      observed(std::countr_zero(bits)).tracker.Update(t, false);
    }
  });
  if (tally.Total() != 0) ChargeRepeats(tally);
}

void ObjectRun::ChargeRepeats(const RepeatTally& tally) {
  // The repeat invariant: after an access, every protocol is in a state
  // the same access leaves alone but for its op/version scalars —
  //   - MCV holds no state;
  //   - a denied protocol committed nothing;
  //   - a granted dynamic protocol committed and reintegrated its whole
  //     group, so the group is Settled: one ensemble over its copies,
  //     with P = those copies.
  // A repeat is then granted in the same group with Q = S = R = P_m and
  // charges the same messages, and the sample after it grants as the
  // last one did. So `tally` repeats cost one step: count × pattern.
  const std::uint64_t n = tally.Total();
  const std::uint64_t total =
      static_cast<std::uint64_t>(cfg_.placement.Size());
  for (int p = 0; p < cfg_.num_protocols; ++p) {
    ObservedSlot& obs = observed(p);
    obs.attempted += n;
    if ((sampled_twice_ >> p) & 1) obs.dual_majority_instants += n;
    if (obs.repeat_copies == 0) continue;
    const SiteSet copies = SiteSet::FromMask(obs.repeat_copies);
    const std::uint64_t k = static_cast<std::uint64_t>(copies.Size());
    obs.granted += n;
    obs.counter.AddVoteCollection(total * n, k * n);
    if (plan(p).mcv != nullptr) {
      obs.counter.Add(MessageKind::kCommit, k * tally.writes);
      continue;
    }
    obs.counter.Add(MessageKind::kCommit, k * n);
    DYNVOTE_CHECK_MSG(dv_rules::Settled(store(p), copies),
                      "a repeated access must find its group settled");
    // The n commits in one: each would install P = copies over copies
    // with the op number one higher and, for a write, the version too.
    // Only the last one's (o, v) survives, so one commit of it stands for
    // all n.
    const ReplicaState& last = store(p).state(copies.RankMax());
    const OpNumber op = last.op_number + static_cast<OpNumber>(n);
    const VersionNumber version =
        last.version + static_cast<VersionNumber>(tally.writes);
    store(p).Commit(copies, op, version, copies);
    NoteStore(p);
  }
}

// --- MCV -----------------------------------------------------------------

SiteSet ObjectRun::McvUserAccess(int p, AccessType type) {
  // ConsistencyProtocol::UserAccess over MCV: the first group whose
  // copies hold the static quorum runs the access. Returns its copies,
  // empty when no group does (then no message is sent).
  const MajorityConsensusVoting& mcv = *plan(p).mcv;
  for (const SiteSet& group : path_.net().Components()) {
    const SiteSet copies = group.Intersect(cfg_.placement);
    if (copies.Empty() || !mcv.Grants(copies, type)) continue;
    MajorityConsensusVoting::ChargeGrantedAccess(&observed(p).counter,
                                                 cfg_.placement, copies, type);
    return copies;
  }
  return SiteSet{};
}

// --- sampling -------------------------------------------------------------

void ObjectRun::Sample() {
  // Per-protocol grant tallies as bitmasks: `once` has protocol p's bit
  // if any group granted, `twice` if a second group did (the
  // dual-majority case). Two words replace a zeroed per-protocol array.
  std::uint32_t once = 0;
  std::uint32_t twice = 0;
  for (const SiteSet& group : path_.net().Components()) {
    SiteSet copies = group.Intersect(cfg_.placement);
    if (copies.Empty()) continue;
    std::uint32_t group_granted = 0;
    for (int p = 0; p < cfg_.num_protocols; ++p) {
      const ProtocolPlan& pl = plan(p);
      const bool granted = pl.mcv != nullptr
                               ? pl.mcv->Grants(copies, AccessType::kWrite)
                               : Host(p).Evaluate(group).granted;
      if (granted) group_granted |= std::uint32_t{1} << p;
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
      if (cfg_.spec.options.check_mutual_exclusion &&
          plan(p).stock->partition_safe()) {
        DYNVOTE_CHECK_MSG(
            (twice & bit) == 0,
            "two disjoint majority partitions (batched engine): " +
                plan(p).stock->name() + " at t=" +
                std::to_string(path_.now()));
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
  sampled_once_ = once;
  sampled_twice_ = twice;
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

  // Materialize the steady network events: each charged every
  // instantaneous protocol one full-group refresh.
  const std::uint64_t total = static_cast<std::uint64_t>(cfg_.placement.Size());
  std::vector<PolicyResult> rows;
  rows.reserve(static_cast<std::size_t>(cfg_.num_protocols));
  for (int p = 0; p < cfg_.num_protocols; ++p) {
    ObservedSlot& obs = observed(p);
    const ProtocolPlan& pl = plan(p);
    if (pl.instantaneous()) {
      obs.counter.Add(MessageKind::kInstantRefresh,
                      2 * total * steady_notifies_);
    }

    obs.tracker.Finish(cfg_.horizon);
    PolicyResult r;
    r.name = pl.stock->name();
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

/// True iff `p` decides exactly as the registry's protocol of its name
/// (the plan the batched engine runs for that name) does over
/// `topology`: a paper policy of the same type and options, with the
/// stock uniform weights and no witnesses.
bool IsStock(const ConsistencyProtocol& p,
             const std::shared_ptr<const Topology>& topology) {
  if (!IsPaperPolicy(p.name())) return false;
  auto made = MakeProtocolByName(p.name(), topology, p.placement());
  if (!made.ok()) return false;
  const ConsistencyProtocol& stock = **made;
  if (typeid(p) != typeid(stock)) return false;
  if (const auto* mcv = dynamic_cast<const MajorityConsensusVoting*>(&p)) {
    const auto& s = static_cast<const MajorityConsensusVoting&>(stock);
    return mcv->weights().IsUniform() && mcv->tie_break() == s.tie_break() &&
           mcv->explicit_quorums() == s.explicit_quorums() &&
           StoreIsInitial(mcv->store());
  }
  const auto& dv = static_cast<const DynamicVoting&>(p);
  const DynamicVotingOptions& o = dv.options();
  const DynamicVotingOptions& s =
      static_cast<const DynamicVoting&>(stock).options();
  return o.tie_break == s.tie_break && o.topological == s.topological &&
         o.optimistic == s.optimistic && o.weights.IsUniform() &&
         o.witnesses.Empty() && &dv.topology() == topology.get() &&
         StoreIsInitial(dv.store());
}

}  // namespace

bool BatchedEngineSupports(const std::vector<std::string>& policies) {
  if (policies.empty() ||
      policies.size() > static_cast<std::size_t>(kMaxBatchedProtocols)) {
    return false;
  }
  return std::all_of(policies.begin(), policies.end(), IsPaperPolicy);
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
    if (!IsStock(*p, spec.topology)) return std::nullopt;
    plan.policies.push_back(p->name());
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

  auto made =
      MakeProtocolSet(protocols.policies, spec.topology, protocols.placement);
  if (!made.ok()) return made.status();
  std::vector<ProtocolPlan> plans;
  plans.reserve(made->size());
  for (auto& p : *made) plans.emplace_back(std::move(p));

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
