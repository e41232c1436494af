#include "core/protocol.h"

#include <string>

#include "obs/binary_trace.h"

namespace dynvote {
namespace {

std::string ReasonKey(const char* metric, const std::string& protocol,
                      QuorumReason reason) {
  std::string key(metric);
  key += "{protocol=";
  key += protocol;
  key += ",reason=";
  key += QuorumReasonName(reason);
  key += "}";
  return key;
}

std::string ProtocolKey(const char* metric, const std::string& protocol) {
  std::string key(metric);
  key += "{protocol=";
  key += protocol;
  key += "}";
  return key;
}

}  // namespace

std::string ConsistencyProtocol::MetricCellKey(int cell) const {
  switch (cell) {
    case kCacheHitCell:
      return ProtocolKey("quorum_cache_hits", name());
    case kAttemptedCell:
      return ProtocolKey("accesses_attempted", name());
    case kGrantedCell:
      return ProtocolKey("accesses_granted", name());
  }
  const int reason = cell - AccessReasonCell(QuorumReason::kGrantedMajority);
  return reason < kNumQuorumReasons
             ? ReasonKey("access_reason", name(),
                         static_cast<QuorumReason>(reason))
             : ReasonKey("quorum_evaluations", name(),
                         static_cast<QuorumReason>(reason -
                                                   kNumQuorumReasons));
}

void ConsistencyProtocol::BumpCell(int cell, std::uint64_t n) const {
  MetricsShard* shard = obs_->metrics;
  if (metric_cells_.shard != shard ||
      metric_cells_.epoch != shard->cell_epoch()) {
    metric_cells_ = MetricCells{};
    metric_cells_.shard = shard;
    metric_cells_.epoch = shard->cell_epoch();
  }
  std::uint64_t*& value = metric_cells_.cells[cell];
  if (value == nullptr) value = shard->CounterCell(MetricCellKey(cell));
  *value += n;
  if (metric_tally_ != nullptr) {
    (*metric_tally_)[static_cast<std::size_t>(cell)] += n;
  }
}

void ConsistencyProtocol::RepeatMetrics(const MetricTally& delta,
                                        std::uint64_t times) {
  for (int cell = 0; cell < kNumMetricCells; ++cell) {
    const std::uint64_t n = delta[static_cast<std::size_t>(cell)];
    if (n != 0) BumpCell(cell, n * times);
  }
}

bool ConsistencyProtocol::MemoState::operator==(const MemoState& other) const {
  if (ring.valid != other.ring.valid || slot_live != other.slot_live) {
    return false;
  }
  if (ring.valid) {
    if (ring.size != other.ring.size || ring.next != other.ring.next) {
      return false;
    }
    for (std::size_t i = 0; i < ring.size; ++i) {
      const QuorumCacheEntry& a = ring.entries[i];
      const QuorumCacheEntry& b = other.ring.entries[i];
      if (a.component_mask != b.component_mask || a.type != b.type ||
          a.granted != b.granted) {
        return false;
      }
    }
  }
  if (!slot_live) return true;
  const QuorumDecision& a = slot;
  const QuorumDecision& b = other.slot;
  return slot_mask == other.slot_mask && a.granted == b.granted &&
         a.by_tie_break == b.by_tie_break &&
         a.witness_refused == b.witness_refused &&
         a.reachable_copies == b.reachable_copies &&
         a.quorum_set == b.quorum_set && a.current_set == b.current_set &&
         a.counted_set == b.counted_set &&
         a.prev_partition == b.prev_partition &&
         a.representative == b.representative && a.reason == b.reason;
}

ConsistencyProtocol::MemoState ConsistencyProtocol::SaveMemo() const {
  MemoState memo;
  memo.ring = quorum_cache_;
  memo.ring.valid = quorum_cache_.valid && quorum_cache_.epoch == state_epoch();
  return memo;
}

void ConsistencyProtocol::RestoreMemo(const MemoState& memo) {
  quorum_cache_ = memo.ring;
  quorum_cache_.epoch = state_epoch();
}

bool ConsistencyProtocol::CachedWouldGrant(const NetworkState& net,
                                           SiteId origin,
                                           AccessType type) const {
  const std::uint64_t epoch = state_epoch();
  if (!quorum_cache_enabled_ || epoch == kStateEpochUncacheable ||
      !net.IsSiteUp(origin)) {
    return WouldGrant(net, origin, type);
  }
  QuorumCache& cache = quorum_cache_;
  if (!cache.valid || cache.epoch != epoch) {
    cache.size = 0;
    cache.next = 0;
    cache.epoch = epoch;
    cache.valid = true;
  }
  const std::uint64_t component_mask = net.ComponentOf(origin).mask();
  for (std::size_t i = 0; i < cache.size; ++i) {
    const QuorumCacheEntry& entry = cache.entries[i];
    if (entry.component_mask == component_mask && entry.type == type) {
      EmitCacheHit(component_mask, type, entry.granted);
      return entry.granted;
    }
  }
  bool granted = WouldGrant(net, origin, type);
  cache.entries[cache.next] = QuorumCacheEntry{component_mask, type, granted};
  cache.next = (cache.next + 1) % kQuorumCacheSlots;
  if (cache.size < kQuorumCacheSlots) ++cache.size;
  return granted;
}

bool ConsistencyProtocol::IsAvailable(const NetworkState& net,
                                      AccessType type) const {
  for (const SiteSet& group : net.Components()) {
    SiteSet copies = group.Intersect(placement());
    if (copies.Empty()) continue;
    if (CachedWouldGrant(net, copies.RankMax(), type)) return true;
  }
  return false;
}

Status ConsistencyProtocol::UserAccess(const NetworkState& net,
                                       AccessType type) {
  for (const SiteSet& group : net.Components()) {
    SiteSet copies = group.Intersect(placement());
    if (copies.Empty()) continue;
    SiteId origin = copies.RankMax();
    if (!CachedWouldGrant(net, origin, type)) continue;
    Status st = type == AccessType::kWrite ? Write(net, origin)
                                           : Read(net, origin);
    EmitUserAccess(net, type, st.ok(), origin);
    return st;
  }
  EmitUserAccess(net, type, false, -1);
  return Status::NoQuorum("no group of communicating sites holds a quorum");
}

QuorumReason ConsistencyProtocol::ClassifyUserAccess(const NetworkState& net,
                                                     AccessType /*type*/,
                                                     bool granted,
                                                     SiteId /*origin*/) const {
  if (granted) return QuorumReason::kGrantedMajority;
  for (const SiteSet& group : net.Components()) {
    if (group.Intersects(placement())) return QuorumReason::kDeniedMinority;
  }
  return QuorumReason::kDeniedNoCopies;
}

void ConsistencyProtocol::EmitCacheHitSlow(std::uint64_t group_mask,
                                           AccessType type,
                                           bool granted) const {
  if (obs_->sink != nullptr) {
    TraceSink* sink = obs_->sink;
    QuorumSetMasks sets;
    sets.group = group_mask;
    // Devirtualized fast path (see TraceSink::fast_path): cache hits are
    // the highest-rate event in the simulation; the direct encoder call
    // folds the binary cache-hit special case away and skips the virtual
    // name() lookup — the cached label already names the protocol.
    if (trace_label_.BinaryHit(sink)) {
      static_cast<BinaryTraceSink*>(sink)->EncodeQuorum(
          obs_->now, obs_->seq, obs_->replication, trace_label_.id,
          type == AccessType::kWrite, granted, QuorumReason::kCacheHit, sets);
    } else {
      const std::string& proto = name();
      sink->WriteQuorum(obs_->now, obs_->seq, obs_->replication, proto,
                        trace_label_.Resolve(sink, proto),
                        type == AccessType::kWrite, granted,
                        QuorumReason::kCacheHit, sets);
    }
  }
  if (obs_->metrics != nullptr) BumpCell(kCacheHitCell);
}

void ConsistencyProtocol::EmitQuorumDecisionSlow(
    std::uint64_t group_mask, const QuorumDecision& decision) const {
  if (obs_->sink != nullptr) {
    TraceSink* sink = obs_->sink;
    QuorumSetMasks sets;
    sets.group = group_mask;
    sets.r = decision.reachable_copies.mask();
    sets.q = decision.quorum_set.mask();
    sets.s = decision.current_set.mask();
    sets.t = decision.counted_set.mask();
    sets.pm = decision.prev_partition.mask();
    // The dynamic-voting quorum test is access-type independent; quorum
    // events carry write=false uniformly.
    if (trace_label_.BinaryHit(sink)) {
      static_cast<BinaryTraceSink*>(sink)->EncodeQuorum(
          obs_->now, obs_->seq, obs_->replication, trace_label_.id,
          /*write=*/false, decision.granted, decision.reason, sets);
    } else {
      const std::string& proto = name();
      sink->WriteQuorum(obs_->now, obs_->seq, obs_->replication, proto,
                        trace_label_.Resolve(sink, proto),
                        /*write=*/false, decision.granted, decision.reason,
                        sets);
    }
  }
  if (obs_->metrics != nullptr) BumpCell(EvaluationCell(decision.reason));
}

void ConsistencyProtocol::EmitUserAccessSlow(const NetworkState& net,
                                             AccessType type, bool granted,
                                             SiteId origin) const {
  EmitUserAccessAsSlow(type, granted, origin,
                       ClassifyUserAccess(net, type, granted, origin));
}

void ConsistencyProtocol::EmitUserAccessAsSlow(AccessType type, bool granted,
                                               SiteId origin,
                                               QuorumReason reason) const {
  if (obs_->sink != nullptr) {
    TraceSink* sink = obs_->sink;
    if (trace_label_.BinaryHit(sink)) {
      static_cast<BinaryTraceSink*>(sink)->EncodeAccess(
          obs_->now, obs_->seq, obs_->replication, trace_label_.id,
          type == AccessType::kWrite, granted, reason, origin);
    } else {
      const std::string& proto = name();
      sink->WriteAccess(obs_->now, obs_->seq, obs_->replication, proto,
                        trace_label_.Resolve(sink, proto),
                        type == AccessType::kWrite, granted, reason, origin);
    }
  }
  if (obs_->metrics != nullptr) {
    BumpCell(kAttemptedCell);
    if (granted) BumpCell(kGrantedCell);
    BumpCell(AccessReasonCell(reason));
  }
}

}  // namespace dynvote
