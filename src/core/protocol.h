// Abstract interface shared by every consistency protocol in the library.
// The simulation driver, the replicated KV store and the benches all speak
// to protocols through this interface.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <typeinfo>

#include "core/quorum.h"
#include "net/network_state.h"
#include "obs/context.h"
#include "repl/message_bus.h"
#include "util/logging.h"
#include "util/site_set.h"
#include "util/status.h"

namespace dynvote {

class ReplicaStore;

/// Kind of file access being attempted. One byte, so a PathEvent
/// (model/sample_path.h) fits in one register.
enum class AccessType : std::uint8_t { kRead, kWrite };

/// What a committed operation did to the replicated data. Data layers
/// (e.g. the replicated KV store) subscribe via
/// ConsistencyProtocol::set_commit_hook to move actual contents exactly
/// where the protocol moved its version state.
struct CommitInfo {
  enum class Kind {
    /// A read was granted; no data moved. `source` holds a current copy.
    kRead,
    /// A write committed: every site in `participants` now holds the new
    /// object contents, built on top of `source`'s pre-commit contents
    /// (the paper replicates whole files, so a write is a whole-object
    /// read-modify-write).
    kWrite,
    /// A stale copy recovered: the single site in `participants` copied
    /// the object from `source`.
    kRecovery,
  };
  Kind kind = Kind::kRead;
  /// Sites whose copy is current after the commit.
  SiteSet participants;
  /// A site holding the pre-commit current contents (-1 if none needed).
  SiteId source = -1;
  /// Version number after the commit.
  std::int64_t version = 0;
};

/// A replica-consistency protocol for one replicated file.
///
/// Protocols own their consistency-control state (operation numbers,
/// version numbers, partition sets, ...). The network is observed, never
/// owned: every entry point receives the current NetworkState.
///
/// Threading: instances are confined to the single simulation thread.
class ConsistencyProtocol {
 public:
  virtual ~ConsistencyProtocol() = default;

  /// Short name ("MCV", "ODV", ...).
  virtual const std::string& name() const = 0;

  /// Sites holding physical copies (or witnesses) of the file.
  virtual SiteSet placement() const = 0;

  /// Sites that hold actual file contents. Equal to placement() except
  /// for protocols with witnesses, which vote but store no data.
  virtual SiteSet data_sites() const { return placement(); }

  /// True iff the protocol preserves mutual exclusion under network
  /// partitions. Available Copy returns false (it assumes partitions
  /// cannot happen); every voting protocol returns true. The simulation
  /// driver only enforces the at-most-one-majority-partition invariant
  /// for partition-safe protocols.
  virtual bool partition_safe() const { return true; }

  /// True for protocols that rely on the connection vector: their state
  /// tracks every change of network status instantaneously (DV, LDV, TDV).
  /// False for MCV (no dynamic state) and the optimistic variants (state
  /// exchanged only at access time).
  virtual bool uses_instantaneous_information() const = 0;

  /// Would an access of `type` issued now at `origin` be granted? Pure:
  /// never mutates protocol state. `origin` must be a live site; the
  /// decision depends only on origin's group of communicating sites.
  virtual bool WouldGrant(const NetworkState& net, SiteId origin,
                          AccessType type) const = 0;

  /// Memoizing front end to WouldGrant. The WouldGrant contract is that
  /// the network's influence on the decision is fully captured by
  /// origin's group of communicating sites, so results are cached keyed
  /// by (component mask, access type); the whole cache is invalidated
  /// whenever `state_epoch()` moves. A network change invalidates
  /// affected entries naturally — it changes the component mask of every
  /// group it touched (NetworkState::generation() tracks the same events
  /// for callers that key on it). Protocols that do not report a state
  /// epoch (state_epoch() == kStateEpochUncacheable) and protocols with
  /// caching disabled fall through to WouldGrant — the answer is always
  /// identical to a direct WouldGrant call.
  bool CachedWouldGrant(const NetworkState& net, SiteId origin,
                        AccessType type) const;

  /// Sentinel state_epoch() value: "this protocol cannot describe its
  /// mutation points as an epoch; never memoize its decisions".
  static constexpr std::uint64_t kStateEpochUncacheable =
      ~std::uint64_t{0};

  /// Monotonic counter that moves on every mutation of the protocol's
  /// consistency-control state, or kStateEpochUncacheable if the protocol
  /// does not track one. Used only by CachedWouldGrant.
  virtual std::uint64_t state_epoch() const { return kStateEpochUncacheable; }

  /// Appends a *canonical* fingerprint of the protocol's
  /// consistency-control state to `out` and returns true. Canonical means
  /// that two instances with equal fingerprints (same options, same
  /// placement) make identical grant/commit decisions on every possible
  /// future — monotonic counters must be rank-normalized, not emitted raw
  /// (see ReplicaStore::AppendCanonicalSignature). The model checker
  /// (src/check/) keys its visited-state memoization on this; a protocol
  /// that cannot canonicalize its state returns false and the checker
  /// falls back to unmerged exploration.
  virtual bool AppendStateSignature(std::string* out) const {
    (void)out;
    return false;
  }

  /// Escape hatch (the --no-quorum-cache flag): disables memoization on
  /// this instance, making CachedWouldGrant a plain WouldGrant call.
  void set_quorum_cache_enabled(bool enabled) {
    quorum_cache_enabled_ = enabled;
  }
  bool quorum_cache_enabled() const { return quorum_cache_enabled_; }

  /// Availability of the replicated file at this instant: true iff a user
  /// able to reach any live site would be granted an access of `type`
  /// (Section 4's user model). Pure.
  virtual bool IsAvailable(const NetworkState& net,
                           AccessType type = AccessType::kWrite) const;

  /// Performs a read at `origin`. Returns NoQuorum if origin is outside
  /// the majority partition, Unavailable if origin is down.
  virtual Status Read(const NetworkState& net, SiteId origin) = 0;

  /// Performs a write at `origin`.
  virtual Status Write(const NetworkState& net, SiteId origin) = 0;

  /// Runs the recovery procedure for (live) site `site`: rejoin the
  /// majority partition, copying the file if stale. Returns NoQuorum if no
  /// majority partition is reachable from `site`.
  virtual Status Recover(const NetworkState& net, SiteId site) = 0;

  /// The paper's user model: one access attempt that may originate at any
  /// live site. Performs the operation in the (unique) group that grants
  /// it, if any; optimistic protocols additionally reintegrate reachable
  /// stale copies here, this being their only state-exchange opportunity.
  virtual Status UserAccess(const NetworkState& net, AccessType type);

  /// Notification that the network state just changed (site or repeater
  /// went up or down). Instantaneous-information protocols refresh their
  /// state; others ignore it.
  virtual void OnNetworkEvent(const NetworkState& net) { (void)net; }

  /// Returns the protocol to its initial state (all copies current).
  virtual void Reset() = 0;

  /// Overwrites this protocol with `other` as it stands: configuration,
  /// consistency-control state, message counts, the quorum-cache switch
  /// and the cache itself. This instance keeps its own attachments —
  /// commit hook, observability context, and the label and metric-cell
  /// caches bound to them — and reuses its allocated storage. From then
  /// on it decides exactly as `other` would. `other` must have the same
  /// dynamic type (CHECK-fails otherwise). The model checker branches
  /// reached states this way instead of replaying their schedules.
  virtual void AssignFrom(const ConsistencyProtocol& other) = 0;

  // --- Repeated accesses ------------------------------------------------
  //
  // Algorithm 1 commits (S, o_m + 1, v_m [+1], S), so between two network
  // events every access after the first finds the same Q = S = P_m and
  // repeats the same commit one op number higher. For a protocol whose
  // decisions read nothing but its replica store, the whole reaction to
  // such an access (grant, commit, messages, metric cells, the memo state
  // it leaves) is then fixed by its memo state and the access type. The
  // serving model's arrival drain (model/arrival_drain.h) learns each
  // reaction from one real access and replays the rest through these
  // hooks.

  /// The store repeated accesses commit to, or null for a protocol whose
  /// reaction may read more than its store and memos; such a protocol
  /// runs every access.
  virtual ReplicaStore* repeatable_store() { return nullptr; }

  /// One entry of the CachedWouldGrant ring.
  struct QuorumCacheEntry {
    std::uint64_t component_mask;
    AccessType type;
    bool granted;
  };
  /// Small ring of recent decisions: a network has few live components at
  /// any instant, so the working set is tiny, but masks from superseded
  /// network states would otherwise accumulate between state mutations —
  /// the ring evicts them in insertion order and keeps the linear scan
  /// O(16).
  static constexpr std::size_t kQuorumCacheSlots = 16;
  struct QuorumCache {
    std::uint64_t epoch = 0;
    bool valid = false;
    std::size_t size = 0;
    std::size_t next = 0;  // ring insertion cursor
    QuorumCacheEntry entries[kQuorumCacheSlots];
  };

  /// The protocol's memos with the store epoch factored out: the
  /// CachedWouldGrant ring and, in DynamicVoting, the Evaluate slot, each
  /// live (it answers for the replica state as it stands) or dead (its
  /// next lookup starts afresh). Compare two with ==; hand one back to
  /// RestoreMemo.
  struct MemoState {
    QuorumCache ring;  // ring.valid: live; ring.epoch is not kept
    bool slot_live = false;
    std::uint64_t slot_mask = 0;
    QuorumDecision slot;

    bool operator==(const MemoState& other) const;
  };
  virtual MemoState SaveMemo() const;
  /// Installs `memo`, its live parts live against the replica state as it
  /// stands. Sound only where that state decides every group as the state
  /// `memo` was saved from did.
  virtual void RestoreMemo(const MemoState& memo);

  /// This instance's metric cells, in tally order: quorum_cache_hits,
  /// accesses_attempted, accesses_granted, then access_reason and
  /// quorum_evaluations by reason.
  static constexpr int kNumMetricCells = 3 + 2 * kNumQuorumReasons;
  using MetricTally = std::array<std::uint64_t, kNumMetricCells>;
  /// While a tally is attached (null detaches; not owned), everything
  /// this instance adds to its metric cells is added to it too.
  void set_metric_tally(MetricTally* tally) { metric_tally_ = tally; }
  /// Adds `times` x `delta` to the metric cells: the emissions of that
  /// many repeats of a reaction that moved the tally by `delta`.
  void RepeatMetrics(const MetricTally& delta, std::uint64_t times);

  /// Message accounting (see repl/message_bus.h).
  MessageCounter* counter() { return &counter_; }
  const MessageCounter& counter() const { return counter_; }

  /// Registers a callback fired after every committed operation that
  /// affects where current data lives. At most one hook; pass nullptr to
  /// clear.
  using CommitHook = std::function<void(const CommitInfo&)>;
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }
  bool has_commit_hook() const { return static_cast<bool>(commit_hook_); }

  /// Attaches an observability context (trace sink + metrics shard, see
  /// obs/context.h). Not owned; null (the default) disables all emission,
  /// leaving a single pointer test on each instrumented path.
  void set_obs(ObsContext* obs) { obs_ = obs; }
  ObsContext* obs() const { return obs_; }

 protected:
  ConsistencyProtocol() = default;
  ConsistencyProtocol(const ConsistencyProtocol&) = delete;
  /// For AssignFrom (through the subclasses' implicit copy assignment):
  /// copies everything except the attachments (hook, obs) and the
  /// per-sink label and metric-cell caches bound to them.
  ConsistencyProtocol& operator=(const ConsistencyProtocol& other) {
    counter_ = other.counter_;
    quorum_cache_enabled_ = other.quorum_cache_enabled_;
    quorum_cache_ = other.quorum_cache_;
    return *this;
  }

  /// `other` as a T, for AssignFrom; CHECK-fails unless `other` is
  /// exactly a T.
  template <typename T>
  static const T& SameTypeAs(const ConsistencyProtocol& other) {
    DYNVOTE_CHECK_MSG(typeid(other) == typeid(T),
                      "AssignFrom across protocol types");
    return static_cast<const T&>(other);
  }

  /// Fires the commit hook, if any.
  void NotifyCommit(const CommitInfo& info) {
    if (commit_hook_) commit_hook_(info);
  }

  /// Attributes a reason code to a whole UserAccess outcome. Called only
  /// when observability is attached, after the access completed. `origin`
  /// is the site the granted operation ran at (-1 on denial). The default
  /// covers quorumless protocols; MCV, AC and DynamicVoting refine it.
  virtual QuorumReason ClassifyUserAccess(const NetworkState& net,
                                          AccessType type, bool granted,
                                          SiteId origin) const;

  /// Emits a kQuorum trace event for a decision served from a cache
  /// (CachedWouldGrant ring or an Evaluate memo) and bumps the cache-hit
  /// counter. One branch when obs is detached.
  void EmitCacheHit(std::uint64_t group_mask, AccessType type,
                    bool granted) const {
    if (obs_ != nullptr) EmitCacheHitSlow(group_mask, type, granted);
  }

  /// Emits a kQuorum trace event for a freshly computed decision and
  /// bumps the per-reason evaluation counter.
  void EmitQuorumDecision(std::uint64_t group_mask,
                          const QuorumDecision& decision) const {
    if (obs_ != nullptr) EmitQuorumDecisionSlow(group_mask, decision);
  }

  /// Emits a kAccess trace event (one per UserAccess call) and bumps the
  /// access counters; classifies the outcome via ClassifyUserAccess.
  void EmitUserAccess(const NetworkState& net, AccessType type, bool granted,
                      SiteId origin) const {
    if (obs_ != nullptr) EmitUserAccessSlow(net, type, granted, origin);
  }

  /// Like EmitUserAccess, for overrides that already know the reason and
  /// need no classification pass (DynamicVoting::UserAccess).
  void EmitUserAccessAs(AccessType type, bool granted, SiteId origin,
                        QuorumReason reason) const {
    if (obs_ != nullptr) EmitUserAccessAsSlow(type, granted, origin, reason);
  }

  MessageCounter counter_;

 private:
  static constexpr int kCacheHitCell = 0;
  static constexpr int kAttemptedCell = 1;
  static constexpr int kGrantedCell = 2;
  static constexpr int AccessReasonCell(QuorumReason reason) {
    return 3 + static_cast<int>(reason);
  }
  static constexpr int EvaluationCell(QuorumReason reason) {
    return 3 + kNumQuorumReasons + static_cast<int>(reason);
  }

  /// Stable counter-cell pointers for this protocol's metric keys,
  /// resolved at most once per key per (shard, cell_epoch) — the serving
  /// model makes these the highest-rate metric updates in the
  /// simulation, so the steady-state cost of an emission must be a
  /// single pointer bump, not a key build plus a map walk. Cells resolve
  /// lazily at first increment, so no zero-valued counters leak into
  /// exports.
  struct MetricCells {
    MetricsShard* shard = nullptr;
    std::uint64_t epoch = 0;
    std::uint64_t* cells[kNumMetricCells] = {};
  };
  /// Adds `n` to metric cell `cell` of the attached shard (resolving it
  /// on first use, and again whenever the shard or its epoch moved) and
  /// to the attached tally. Requires obs_->metrics.
  void BumpCell(int cell, std::uint64_t n = 1) const;
  /// The metric key of `cell`.
  std::string MetricCellKey(int cell) const;

  void EmitCacheHitSlow(std::uint64_t group_mask, AccessType type,
                        bool granted) const;
  void EmitQuorumDecisionSlow(std::uint64_t group_mask,
                              const QuorumDecision& decision) const;
  void EmitUserAccessSlow(const NetworkState& net, AccessType type,
                          bool granted, SiteId origin) const;
  void EmitUserAccessAsSlow(AccessType type, bool granted, SiteId origin,
                            QuorumReason reason) const;

  CommitHook commit_hook_;
  ObsContext* obs_ = nullptr;
  bool quorum_cache_enabled_ = true;
  mutable QuorumCache quorum_cache_;
  /// The sink's RegisterLabel() token for name(), re-registered whenever
  /// the sink changes; lets the typed trace writes skip per-event string
  /// interning.
  mutable TraceLabelCache trace_label_;
  mutable MetricCells metric_cells_;
  MetricTally* metric_tally_ = nullptr;
};

}  // namespace dynvote
