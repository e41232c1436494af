// Message accounting for the protocols. The paper argues (Section 2.1)
// that the optimistic algorithms have "much the same message traffic
// overhead as majority consensus voting" while instantaneous dynamic
// voting needs a costly connection vector; bench/message_overhead
// reproduces that comparison. Protocols record every simulated message
// here; the simulation driver reads the totals.

#pragma once

#include <cstdint>
#include <string>

namespace dynvote {

/// Category of a simulated message exchange.
enum class MessageKind : int {
  /// Initial broadcast probing which sites answer (START, one per site
  /// in the replication set).
  kProbe = 0,
  /// Reply to a probe, one per reachable copy.
  kProbeReply = 1,
  /// Request for a copy's (o, v, P) ensemble.
  kStateRequest = 2,
  /// Reply carrying the ensemble.
  kStateReply = 3,
  /// COMMIT carrying the new ensemble to a participant.
  kCommit = 4,
  /// ABORT notification.
  kAbort = 5,
  /// Whole-file transfer to a recovering copy.
  kFileCopy = 6,
  /// State refresh forced by instantaneous ("connection vector")
  /// protocols on a network event.
  kInstantRefresh = 7,
};

inline constexpr int kNumMessageKinds = 8;

/// Human-readable kind name.
std::string MessageKindName(MessageKind kind);

/// Tallies messages by kind.
class MessageCounter {
 public:
  void Add(MessageKind kind, std::uint64_t n = 1) {
    counts_[static_cast<int>(kind)] += n;
  }

  /// The vote collection that opens a quorum access: a probe to each of
  /// `copies` copies, then a probe reply, a state request and a state
  /// reply for each of the `reachable` ones.
  void AddVoteCollection(std::uint64_t copies, std::uint64_t reachable) {
    Add(MessageKind::kProbe, copies);
    Add(MessageKind::kProbeReply, reachable);
    Add(MessageKind::kStateRequest, reachable);
    Add(MessageKind::kStateReply, reachable);
  }

  std::uint64_t count(MessageKind kind) const {
    return counts_[static_cast<int>(kind)];
  }

  /// Sum over all kinds.
  std::uint64_t Total() const;

  /// Total excluding file copies (control traffic only).
  std::uint64_t ControlTotal() const;

  void Reset();

  /// "probe=12 probe_reply=9 ... total=55".
  std::string ToString() const;

 private:
  std::uint64_t counts_[kNumMessageKinds] = {};
};

}  // namespace dynvote
