#include "recording_sink.h"

#include <algorithm>

namespace perfbench {
namespace {

/// Events kept verbatim for the encoder replay.
constexpr std::size_t kSampleEvents = 1 << 16;

}  // namespace

RecordingSink::RecordingSink(std::size_t max_records)
    : max_records_(max_records), last_(Clock::now()) {
  sample_.reserve(std::min(kSampleEvents, max_records));
}

void RecordingSink::BeginUnit(int unit) {
  unit_ = unit;
  if (dispatch_times_.size() <= static_cast<std::size_t>(unit)) {
    dispatch_times_.resize(static_cast<std::size_t>(unit) + 1);
  }
  last_ = Clock::now();
}

void RecordingSink::EndUnit() { last_ = Clock::now(); }

Clock::time_point RecordingSink::Enter(Emitter e) {
  const Clock::time_point now = Clock::now();
  gap_ns_[static_cast<int>(e)] += NanosBetween(last_, now);
  ++calls_[static_cast<int>(e)];
  CountEvent();
  CountWritten();
  return now;
}

void RecordingSink::Leave(Clock::time_point entry) {
  last_ = Clock::now();
  inside_ns_ += NanosBetween(entry, last_);
}

std::uint64_t RecordingSink::total_calls() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : calls_) total += c;
  return total;
}

std::int64_t RecordingSink::charged_ns() const {
  std::int64_t total = inside_ns_;
  for (std::int64_t g : gap_ns_) total += g;
  return total;
}

std::uint8_t RecordingSink::ProtocolIndex(const std::string& protocol) {
  for (std::size_t i = 0; i < protocols_.size(); ++i) {
    if (protocols_[i] == protocol) return static_cast<std::uint8_t>(i);
  }
  protocols_.push_back(protocol);
  return static_cast<std::uint8_t>(protocols_.size() - 1);
}

void RecordingSink::Write(const dynvote::TraceEvent& event) {
  using dynvote::TraceEventType;
  const Emitter e = event.type == TraceEventType::kNet       ? Emitter::kFlip
                    : event.type == TraceEventType::kServing ? Emitter::kServing
                                                             : Emitter::kOther;
  const Clock::time_point entry = Enter(e);
  if (e == Emitter::kFlip && Keep(flips_.size()) &&
      event.components.size() <= 8) {
    FlipRecord flip;
    flip.unit = unit_;
    flip.id = event.site;
    flip.repeater = event.repeater;
    flip.up = event.up;
    flip.num_components = static_cast<std::uint8_t>(event.components.size());
    std::copy(event.components.begin(), event.components.end(),
              flip.components.begin());
    flips_.push_back(flip);
  }
  if (sample_.size() < std::min(kSampleEvents, max_records_)) {
    sample_.push_back(event);
  }
  Leave(entry);
}

void RecordingSink::WriteSim(double t, std::uint64_t seq, int replication,
                             const char* op, std::uint32_t /*label*/) {
  const Clock::time_point entry = Enter(Emitter::kDispatch);
  std::vector<double>& times = dispatch_times_[static_cast<std::size_t>(unit_)];
  if (Keep(times.size())) times.push_back(t);
  if (sample_.size() < std::min(kSampleEvents, max_records_)) {
    dynvote::TraceEvent event;
    event.type = dynvote::TraceEventType::kSim;
    event.t = t;
    event.seq = seq;
    event.replication = replication;
    event.op = op;
    sample_.push_back(std::move(event));
  }
  Leave(entry);
}

void RecordingSink::WriteQuorum(double t, std::uint64_t seq, int replication,
                                const std::string& protocol,
                                std::uint32_t /*label*/, bool write,
                                bool granted, dynvote::QuorumReason reason,
                                const dynvote::QuorumSetMasks& sets) {
  const bool hit = reason == dynvote::QuorumReason::kCacheHit;
  const Clock::time_point entry =
      Enter(hit ? Emitter::kCacheHit : Emitter::kQuorum);
  if (!hit && Keep(quorums_.size())) {
    QuorumRecord record;
    record.unit = unit_;
    record.protocol = ProtocolIndex(protocol);
    record.granted = granted;
    record.reason = reason;
    record.sets = sets;
    quorums_.push_back(record);
  }
  if (sample_.size() < std::min(kSampleEvents, max_records_)) {
    dynvote::TraceEvent event;
    event.type = dynvote::TraceEventType::kQuorum;
    event.t = t;
    event.seq = seq;
    event.replication = replication;
    event.protocol = protocol;
    event.write = write;
    event.granted = granted;
    event.reason = reason;
    event.group = sets.group;
    event.set_r = sets.r;
    event.set_q = sets.q;
    event.set_s = sets.s;
    event.set_t = sets.t;
    event.set_pm = sets.pm;
    sample_.push_back(std::move(event));
  }
  Leave(entry);
}

void RecordingSink::WriteAccess(double t, std::uint64_t seq, int replication,
                                const std::string& protocol,
                                std::uint32_t /*label*/, bool write,
                                bool granted, dynvote::QuorumReason reason,
                                int origin) {
  const Clock::time_point entry = Enter(Emitter::kAccess);
  if (granted) ++accesses_granted_;
  if (sample_.size() < std::min(kSampleEvents, max_records_)) {
    dynvote::TraceEvent event;
    event.type = dynvote::TraceEventType::kAccess;
    event.t = t;
    event.seq = seq;
    event.replication = replication;
    event.protocol = protocol;
    event.write = write;
    event.granted = granted;
    event.reason = reason;
    event.origin = origin;
    sample_.push_back(std::move(event));
  }
  Leave(entry);
}

void RecordingSink::WriteAvail(double t, std::uint64_t seq, int replication,
                               const std::string& protocol,
                               std::uint32_t /*label*/, bool available) {
  const Clock::time_point entry = Enter(Emitter::kAvail);
  if (sample_.size() < std::min(kSampleEvents, max_records_)) {
    dynvote::TraceEvent event;
    event.type = dynvote::TraceEventType::kAvail;
    event.t = t;
    event.seq = seq;
    event.replication = replication;
    event.protocol = protocol;
    event.available = available;
    sample_.push_back(std::move(event));
  }
  Leave(entry);
}

}  // namespace perfbench
