// Majority Consensus Voting (Ellis 77, Gifford 79): the static baseline of
// the paper. The quorum is fixed when the system starts — a group may
// proceed iff it holds more than half of the total vote weight (or, with
// explicit Gifford-style read/write quorums, at least r or w votes).

#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/protocol.h"
#include "core/quorum.h"
#include "repl/replica_store.h"
#include "util/result.h"

namespace dynvote {

/// Configuration of a static voting protocol.
struct McvOptions {
  /// Per-site vote weights; default gives one vote per copy.
  VoteWeights weights;
  /// Resolution of exact-half splits (even total weight only). The
  /// default resolves ties in favour of the group holding the
  /// highest-ranked placement member — statically equivalent to the
  /// classic "give one site an extra vote" weight assignment. The paper
  /// does not spell its MCV tie rule out, but its Table 2 is only
  /// consistent with a tie-resolving static scheme: MCV in configuration
  /// E (4 copies) beats MCV in configuration A (3 of the same copies),
  /// which a strict 3-of-4 majority cannot do (every 2-failure that kills
  /// A's quorum also kills E's). Pass kNone for the textbook
  /// strict-majority rule.
  TieBreak tie_break = TieBreak::kLexicographic;
  /// Explicit read quorum r. Default: strict weight majority.
  std::optional<long long> read_quorum;
  /// Explicit write quorum w. Default: strict weight majority.
  /// If both quorums are given, Make() enforces Gifford's constraints
  /// r + w > W and 2w > W (W = total weight), which guarantee that any
  /// read quorum intersects any write quorum and any two write quorums
  /// intersect.
  std::optional<long long> write_quorum;
  /// Display name; defaults to "MCV" (or "WMCV" with non-uniform weights).
  std::string name;
};

/// Static (majority consensus / weighted) voting.
class MajorityConsensusVoting final : public ConsistencyProtocol {
 public:
  /// Creates the protocol for copies at `placement`.
  static Result<std::unique_ptr<MajorityConsensusVoting>> Make(
      SiteSet placement, McvOptions options = {});

  const std::string& name() const override { return name_; }
  SiteSet placement() const override { return store_.placement(); }
  bool uses_instantaneous_information() const override { return false; }

  bool WouldGrant(const NetworkState& net, SiteId origin,
                  AccessType type) const override;
  Status Read(const NetworkState& net, SiteId origin) override;
  Status Write(const NetworkState& net, SiteId origin) override;
  /// MCV has no recovery protocol: stale copies are refreshed by the next
  /// write whose quorum includes them. Recover is a no-op that reports
  /// whether `site` can currently reach a read quorum.
  Status Recover(const NetworkState& net, SiteId site) override;
  void Reset() override { store_.Reset(); }

  void AssignFrom(const ConsistencyProtocol& other) override {
    *this = SameTypeAs<MajorityConsensusVoting>(other);
  }

  /// MCV's grant decision is purely static (weights and quorums are
  /// frozen at construction); the store epoch is conservative but cheap.
  std::uint64_t state_epoch() const override { return store_.epoch(); }

  /// The store and the (static) quorums decide every access.
  ReplicaStore* repeatable_store() override { return &store_; }

  /// Grants are static, but versions steer where commits read from, so
  /// the store fingerprint is the canonical state.
  bool AppendStateSignature(std::string* out) const override {
    store_.AppendCanonicalSignature(out);
    return true;
  }

  /// The static rule over the copies `reachable`: r (reads) or w
  /// (writes) votes, or, under the default quorums and the lexicographic
  /// tie rule, exactly half the total weight including the placement's
  /// highest-ranked copy. Inline: the batched engine samples with it.
  bool Grants(SiteSet reachable, AccessType type) const {
    const long long votes = weights_.WeightOf(reachable);
    if (votes >= (type == AccessType::kWrite ? write_quorum_ : read_quorum_)) {
      return true;
    }
    return tie_break_ == TieBreak::kLexicographic && !explicit_quorums_ &&
           2 * votes == weights_.WeightOf(store_.placement()) &&
           reachable.Contains(store_.placement().RankMax());
  }

  /// The traffic of a granted access over the copies `reachable`: the
  /// vote collection, and for a write the COMMIT to every reachable copy.
  static void ChargeGrantedAccess(MessageCounter* counter, SiteSet placement,
                                  SiteSet reachable, AccessType type) {
    counter->AddVoteCollection(placement.Size(), reachable.Size());
    if (type == AccessType::kWrite) {
      counter->Add(MessageKind::kCommit, reachable.Size());
    }
  }

  /// Quorums in force (after defaulting).
  long long read_quorum() const { return read_quorum_; }
  long long write_quorum() const { return write_quorum_; }
  /// True iff Make() was given an explicit read or write quorum.
  bool explicit_quorums() const { return explicit_quorums_; }

  const VoteWeights& weights() const { return weights_; }
  TieBreak tie_break() const { return tie_break_; }

  /// Replica state, exposed for tests and the KV store.
  const ReplicaStore& store() const { return store_; }

 protected:
  /// Attributes grants to the static majority vs the static lexicographic
  /// tie rule, and denials to lost ties vs plain minorities.
  QuorumReason ClassifyUserAccess(const NetworkState& net, AccessType type,
                                  bool granted,
                                  SiteId origin) const override;

 private:
  MajorityConsensusVoting(ReplicaStore store, McvOptions options,
                          long long r, long long w);

  /// Reachable copies from `origin`, or empty if origin is down.
  SiteSet ReachableCopies(const NetworkState& net, SiteId origin) const;
  Status Access(const NetworkState& net, SiteId origin, AccessType type);

  ReplicaStore store_;
  VoteWeights weights_;
  TieBreak tie_break_;
  long long read_quorum_;
  long long write_quorum_;
  bool explicit_quorums_;
  std::string name_;
};

}  // namespace dynvote
