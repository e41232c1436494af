// The serving model's arrival drain: between two network events, learn
// each protocol's reaction to an open-loop arrival once and replay it
// exactly for every later arrival that meets the same state.
//
// Why replaying is exact. Algorithm 1 commits (S, o_m + 1, v_m [+1], S).
// Once one access since a network event has settled the granted group —
// every copy in it carries one ensemble whose P is the group — every
// further access finds the same decision in every group and commits the
// same set one op number higher, until the next network event. For a
// protocol whose decisions read only its replica store
// (ConsistencyProtocol::repeatable_store), the whole reaction to an
// arrival — the grant, the commit and its op/version step, the messages
// by kind, every metric cell bumped, and the availability sample that
// follows — is then fixed by two inputs: the protocol's memo state
// (ConsistencyProtocol::MemoState) and the arrival's input (read, write,
// or origin down). The origin never enters: UserAccess does not read it.
//
// The drain checks the settling instead of assuming it. It records a
// step only if the step left the store as it found it, but one op number
// higher on the set the interval's other recorded steps wrote: every
// changed copy went from one ensemble (o, v, P) to (o + 1, v', P). Any
// other movement (an unsettled group's first commit, a reintegration, a
// commit to another set) is never recorded and clears the table, because
// the steps recorded before it were learned on a store that is gone.
//
// The automaton. Per protocol and interval, the drain interns each memo
// state it meets and records, per (state, input), the reaction a real
// step produced. The first arrival after a network event always runs:
// the drain has not yet seen the memo state the event left. An arrival
// whose (state, input) is known is replayed: the engine counts it, runs
// the serving queue and the availability tracker, and the drain moves to
// the recorded next state. Before the protocol runs for real again (an
// unlearned transition, a network event, the end of the run), the drain
// brings it up to date: one ReplicaStore::Commit carrying the
// accumulated op/version steps, the replayed messages and metric cells in
// bulk, then the tracked memo state.
//
// Only untraced runs drain: a trace records every decision, so traced
// runs step every arrival and are the reference the drain is tested
// against (tests/model/serving_drain_test.cc).

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/protocol.h"
#include "model/open_loop.h"
#include "repl/message_bus.h"
#include "repl/replica_store.h"

namespace dynvote {

/// What an open-loop arrival asks of a protocol: a read, a write, or
/// nothing but the availability sample (its origin replica is down).
enum class ArrivalInput : std::uint8_t { kRead, kWrite, kRejected };

/// What a real step reports back to the drain.
struct ArrivalStep {
  bool granted = false;     // the access was granted (served inputs)
  std::uint64_t msgs = 0;   // control messages it sent
  int granted_groups = 0;   // the availability sample's count
};

/// One protocol's whole reaction to one arrival, learned from a real
/// step and replayed as counter bumps.
struct ArrivalReaction {
  ArrivalStep step;
  /// One commit over the interval's commit set, op + 1 and version +
  /// `version_step`; false when the store did not move.
  bool commits = false;
  VersionNumber version_step = 0;
  MessageCounter messages;                   // the counter's movement
  ConsistencyProtocol::MetricTally metrics{};  // the metric tally's movement
  int to = -1;                               // the memo state it leaves
  std::uint64_t repeats = 0;  // replays not yet applied to the protocol
};

/// The drain's automaton for one protocol. A disabled drain (a protocol
/// without a repeatable store, or one with a commit hook) learns nothing:
/// every arrival steps.
class ArrivalDrain {
 public:
  ArrivalDrain(ConsistencyProtocol* protocol, bool enabled);
  ArrivalDrain(ArrivalDrain&&) = default;
  ~ArrivalDrain();

  /// Replays the reaction learned for `input` from the tracked memo
  /// state — counts it and moves to the state it leaves — and returns it;
  /// null when there is none, and the arrival must run for real.
  const ArrivalReaction* TryReplay(ArrivalInput input) {
    if (state_ < 0) return nullptr;
    const int r = next_[static_cast<std::size_t>(state_)]
                       [static_cast<std::size_t>(input)];
    if (r < 0) return nullptr;
    ArrivalReaction& reaction = reactions_[static_cast<std::size_t>(r)];
    ++reaction.repeats;
    state_ = reaction.to;
    pending_ = true;
    return &reaction;
  }

  /// Runs `step` — the protocol's real reaction to an arrival of
  /// `input`, returning an ArrivalStep — after bringing the protocol up
  /// to date, and learns its reaction.
  template <typename Step>
  void RunReal(ArrivalInput input, ServingStage& stage, Step&& step) {
    Sync(stage);
    if (store_ == nullptr) {
      step();
      return;
    }
    Before before{*store_, *protocol_->counter(), *tally_};
    const ArrivalStep outcome = step();
    Learn(input, before, outcome);
  }

  /// Brings the protocol up to date (Sync) and forgets the interval.
  /// Call at a network event, before the protocol reacts to it, and at
  /// the end of the run.
  void EndInterval(ServingStage& stage);

 private:
  struct Before {
    ReplicaStore store;
    MessageCounter counter;
    ConsistencyProtocol::MetricTally metrics;
  };

  /// Cap on one interval's table; past it the drain stops learning.
  static constexpr std::size_t kMaxStates = 32;

  /// Applies every replay since the protocol's last real step: one bulk
  /// commit, the messages (attributed to `stage`'s access phase) and the
  /// metric cells, then the tracked memo state.
  void Sync(ServingStage& stage);
  /// Forgets what was learned.
  void Clear();
  /// The index of the protocol's current memo state, interning it; -1
  /// when the table is full.
  int Intern();
  void Learn(ArrivalInput input, const Before& before,
             const ArrivalStep& outcome);

  ConsistencyProtocol* protocol_;
  ReplicaStore* store_;  // null: disabled
  /// The protocol's metric-cell movement, attached to it while enabled.
  std::unique_ptr<ConsistencyProtocol::MetricTally> tally_;
  bool pending_ = false;  // replays not yet applied
  int state_ = -1;        // tracked memo state; -1: not tracking
  std::vector<ConsistencyProtocol::MemoState> states_;
  std::vector<std::array<int, 3>> next_;  // per state, per input
  std::vector<ArrivalReaction> reactions_;
  /// Where the interval's recorded commits go, and the P they install.
  SiteSet commit_set_;
  SiteSet commit_partition_;
};

}  // namespace dynvote
