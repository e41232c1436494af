// The dynamic voting family — the paper's primary contribution. One
// configurable implementation covers:
//
//   DV   — Davčev-Burkhard dynamic voting: instantaneous information, ties
//          fail (tie_break = kNone, optimistic = false).
//   LDV  — Jajodia's lexicographic dynamic voting: instantaneous
//          information, lexicographic tie-break.
//   ODV  — the paper's Optimistic Dynamic Voting: the LDV rule evaluated
//          over possibly out-of-date state; state is exchanged only at
//          access time (optimistic = true).
//   TDV  — Topological Dynamic Voting: instantaneous information plus
//          Section 3's vote-carrying over network segments.
//   OTDV — Optimistic Topological Dynamic Voting: both refinements.
//
// Extensions from the paper's future-work list: per-site vote weights and
// witness copies (sites that vote and store the (o, v, P) ensemble but no
// data; Pâris 1986).

#pragma once

#include <memory>
#include <string>

#include "core/protocol.h"
#include "core/quorum.h"
#include "net/topology.h"
#include "repl/replica_store.h"
#include "util/result.h"

namespace dynvote {

/// Configuration of a dynamic voting protocol.
struct DynamicVotingOptions {
  /// Tie resolution; kLexicographic for all of the paper's protocols
  /// except original DV.
  TieBreak tie_break = TieBreak::kLexicographic;
  /// Count votes with Section 3's topological closure (TDV/OTDV).
  bool topological = false;
  /// Operate on possibly out-of-date information: no state refresh on
  /// network events; state changes only at access/recovery time
  /// (ODV/OTDV).
  bool optimistic = false;
  /// Per-site vote weights; default one vote per copy.
  VoteWeights weights;
  /// Subset of the placement holding witnesses: copies of the state
  /// ensemble without the data. Witnesses vote, but the protocol refuses
  /// any access that cannot reach a current *data* copy.
  SiteSet witnesses;
  /// Display name; empty derives one from the flags (DV, LDV, ODV, ...).
  std::string name;
};

/// Dynamic voting over partition sets (Section 2.1 and Section 3).
class DynamicVoting final : public ConsistencyProtocol {
 public:
  /// Creates the protocol for copies at `placement` on `topology`.
  /// `topology` is required even for the non-topological variants: it
  /// defines the site universe (and Make() validates the placement
  /// against it).
  static Result<std::unique_ptr<DynamicVoting>> Make(
      std::shared_ptr<const Topology> topology, SiteSet placement,
      DynamicVotingOptions options = {});

  const std::string& name() const override { return name_; }
  SiteSet placement() const override { return store_.placement(); }
  bool uses_instantaneous_information() const override {
    return !options_.optimistic;
  }

  /// The plain variants (DV/LDV/ODV) guarantee at most one majority
  /// partition at any time. The topological variants, *as printed in the
  /// paper*, do not: a site that solo-advanced the lineage by carrying a
  /// down segment-mate's vote leaves the old block's other members with a
  /// stale partition set that can still muster a majority, forking the
  /// lineage (see tests/core/topological_unsoundness_test.cc for the
  /// minimal scenario, observed in the paper's own configuration D). The
  /// paper's consistency argument covers only concurrent claims of the
  /// same unavailable site. We reproduce the algorithm literally — the
  /// published availability numbers depend on these grants — and report
  /// the hazard instead of hiding it.
  bool partition_safe() const override { return !options_.topological; }

  bool WouldGrant(const NetworkState& net, SiteId origin,
                  AccessType type) const override;
  Status Read(const NetworkState& net, SiteId origin) override;
  Status Write(const NetworkState& net, SiteId origin) override;
  Status Recover(const NetworkState& net, SiteId site) override;

  /// The single-user access of the simulation model. After a granted
  /// access, reachable stale copies are reintegrated (for the optimistic
  /// variants this is their only opportunity; for the instantaneous ones
  /// it is a no-op because OnNetworkEvent already did it).
  Status UserAccess(const NetworkState& net, AccessType type) override;

  /// Instantaneous-information variants refresh replica state on every
  /// change of network status — the simulated connection vector.
  void OnNetworkEvent(const NetworkState& net) override;

  void Reset() override { store_.Reset(); }

  void AssignFrom(const ConsistencyProtocol& other) override {
    *this = SameTypeAs<DynamicVoting>(other);
  }

  /// Decisions depend only on the store (options and topology are frozen
  /// at construction), so the store epoch is a complete invalidation key.
  std::uint64_t state_epoch() const override { return store_.epoch(); }

  /// For the same reason, the canonical store fingerprint is a complete
  /// state signature, and a repeated access reads only the store and the
  /// memos.
  bool AppendStateSignature(std::string* out) const override {
    store_.AppendCanonicalSignature(out);
    return true;
  }
  ReplicaStore* repeatable_store() override { return &store_; }
  /// Adds the Evaluate slot to the base memos.
  MemoState SaveMemo() const override;
  void RestoreMemo(const MemoState& memo) override;

  /// Runs the majority-partition test of Algorithm 1 for the given group
  /// of mutually communicating sites, against current replica state.
  /// Exposed for tests, benches and the KV store. Pure given (group,
  /// store epoch); the last decision is memoized because the access path
  /// evaluates the same group back to back (UserAccess pre-check, then
  /// Access; OnNetworkEvent, then the driver's availability sample).
  QuorumDecision Evaluate(SiteSet group) const;

  const ReplicaStore& store() const { return store_; }
  const DynamicVotingOptions& options() const { return options_; }
  const Topology& topology() const { return *topology_; }

  /// Data-holding copies: placement minus witnesses.
  SiteSet data_copies() const {
    return store_.placement().Minus(options_.witnesses);
  }
  SiteSet data_sites() const override { return data_copies(); }

 private:
  DynamicVoting(std::shared_ptr<const Topology> topology, ReplicaStore store,
                DynamicVotingOptions options);

  /// The host of the shared Algorithm 1 reactions
  /// (core/dynamic_voting_rules.h) over this protocol's own state.
  struct SoloHost;

  /// Performs a read or write at `origin` per Figures 1-2 / 5-6.
  Status Access(const NetworkState& net, SiteId origin, AccessType type);

  std::shared_ptr<const Topology> topology_;
  ReplicaStore store_;
  DynamicVotingOptions options_;
  std::string name_;

  // Single-slot Evaluate memo; see Evaluate(). Honors the
  // set_quorum_cache_enabled escape hatch.
  struct EvalCache {
    bool valid = false;
    std::uint64_t group_mask = 0;
    std::uint64_t epoch = 0;
    QuorumDecision decision;
  };
  mutable EvalCache eval_cache_;
};

/// Convenience factories for the five named protocols of the paper.
Result<std::unique_ptr<DynamicVoting>> MakeDV(
    std::shared_ptr<const Topology> topology, SiteSet placement);
Result<std::unique_ptr<DynamicVoting>> MakeLDV(
    std::shared_ptr<const Topology> topology, SiteSet placement);
Result<std::unique_ptr<DynamicVoting>> MakeODV(
    std::shared_ptr<const Topology> topology, SiteSet placement);
Result<std::unique_ptr<DynamicVoting>> MakeTDV(
    std::shared_ptr<const Topology> topology, SiteSet placement);
Result<std::unique_ptr<DynamicVoting>> MakeOTDV(
    std::shared_ptr<const Topology> topology, SiteSet placement);

}  // namespace dynvote
