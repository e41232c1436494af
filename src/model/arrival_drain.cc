#include "model/arrival_drain.h"

namespace dynvote {

ArrivalDrain::ArrivalDrain(ConsistencyProtocol* protocol, bool enabled)
    : protocol_(protocol),
      store_(enabled && !protocol->has_commit_hook()
                 ? protocol->repeatable_store()
                 : nullptr) {
  if (store_ == nullptr) return;
  tally_ = std::make_unique<ConsistencyProtocol::MetricTally>();
  protocol_->set_metric_tally(tally_.get());
}

ArrivalDrain::~ArrivalDrain() {
  if (tally_ != nullptr) protocol_->set_metric_tally(nullptr);
}

int ArrivalDrain::Intern() {
  ConsistencyProtocol::MemoState memo = protocol_->SaveMemo();
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == memo) return static_cast<int>(i);
  }
  if (states_.size() == kMaxStates) return -1;
  states_.push_back(memo);
  next_.push_back({-1, -1, -1});
  return static_cast<int>(states_.size() - 1);
}

void ArrivalDrain::Learn(ArrivalInput input, const Before& before,
                         const ArrivalStep& outcome) {
  ArrivalReaction reaction;
  reaction.step = outcome;
  // Recorded only if the store moved by one repeatable commit, or not at
  // all (see the header).
  SiteSet changed;
  for (SiteId s : store_->placement()) {
    if (!(before.store.state(s) == store_->state(s))) changed.Add(s);
  }
  bool repeatable = true;
  if (!changed.Empty()) {
    const ReplicaState& was = before.store.state(changed.RankMax());
    const ReplicaState& is = store_->state(changed.RankMax());
    repeatable = is.op_number == was.op_number + 1 &&
                 is.partition_set == was.partition_set &&
                 (commit_set_.Empty() || commit_set_ == changed);
    for (SiteId s : changed) {
      repeatable = repeatable && before.store.state(s) == was &&
                   store_->state(s) == is;
    }
    reaction.commits = true;
    reaction.version_step = is.version - was.version;
    if (repeatable) {
      commit_set_ = changed;
      commit_partition_ = is.partition_set;
    }
  }
  if (!repeatable) {
    // The commits recorded so far assumed the store this step replaced.
    Clear();
    state_ = Intern();
    return;
  }
  for (int k = 0; k < kNumMessageKinds; ++k) {
    const auto kind = static_cast<MessageKind>(k);
    reaction.messages.Add(
        kind, protocol_->counter()->count(kind) - before.counter.count(kind));
  }
  for (std::size_t c = 0; c < tally_->size(); ++c) {
    reaction.metrics[c] = (*tally_)[c] - before.metrics[c];
  }
  const int from = state_;
  reaction.to = Intern();
  state_ = reaction.to;
  if (from < 0 || reaction.to < 0) return;
  next_[static_cast<std::size_t>(from)][static_cast<std::size_t>(input)] =
      static_cast<int>(reactions_.size());
  reactions_.push_back(reaction);
}

void ArrivalDrain::Sync(ServingStage& stage) {
  if (!pending_) return;
  pending_ = false;
  std::uint64_t commits = 0;
  VersionNumber versions = 0;
  MessageCounter* counter = protocol_->counter();
  for (ArrivalReaction& r : reactions_) {
    if (r.repeats == 0) continue;
    for (int k = 0; k < kNumMessageKinds; ++k) {
      const auto kind = static_cast<MessageKind>(k);
      counter->Add(kind, r.messages.count(kind) * r.repeats);
    }
    protocol_->RepeatMetrics(r.metrics, r.repeats);
    if (r.commits) {
      commits += r.repeats;
      versions += r.version_step * static_cast<VersionNumber>(r.repeats);
    }
    r.repeats = 0;
  }
  if (commits > 0) {
    // Every recorded commit started from the block the previous one left:
    // their steps add up.
    const ReplicaState& block = store_->state(commit_set_.RankMax());
    const OpNumber op = block.op_number + static_cast<OpNumber>(commits);
    const VersionNumber version = block.version + versions;
    store_->Commit(commit_set_, op, version, commit_partition_);
  }
  stage.AttributeMessages(*counter, ServingStage::Phase::kAccess);
  protocol_->RestoreMemo(states_[static_cast<std::size_t>(state_)]);
}

void ArrivalDrain::Clear() {
  state_ = -1;
  states_.clear();
  next_.clear();
  reactions_.clear();
  commit_set_ = SiteSet();
  commit_partition_ = SiteSet();
}

void ArrivalDrain::EndInterval(ServingStage& stage) {
  Sync(stage);
  Clear();
}

}  // namespace dynvote
