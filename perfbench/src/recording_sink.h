// The traced run's recorder: a benchmark-owned TraceSink attached through
// ExperimentSpec::obs. It stamps steady_clock at every callback, charges
// the wall gap since the previous callback to the emitter of this one, and
// keeps the inputs of each call in memory so traced.cc can replay them
// through one public function at a time.
//
// Gap attribution (one emitter per callback kind):
//   WriteSim    sim    EventQueue pop plus the tail of the previous handler
//   Write(net)  net    failure/repair/maintenance handler up to the flip,
//                      NetworkState mutation and component refresh
//   WriteQuorum core   one quorum evaluation (a memo hit when the record
//                      carries only the group mask)
//   WriteAccess model  the access handler: read/write, commit, messages
//   Write(serving) model  the serving stage of one arrival
//   WriteAvail  stats  availability tracker update
// Time spent inside the callbacks themselves is the recorder's own cost
// and is charged to obs.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/trace_sink.h"

namespace perfbench {

enum class Emitter : int {
  kDispatch = 0,
  kFlip,
  kQuorum,
  kCacheHit,
  kAccess,
  kServing,
  kAvail,
  kOther,
  kCount,
};
inline constexpr int kNumEmitters = static_cast<int>(Emitter::kCount);

/// One effective site/repeater flip and the component partition after it.
struct FlipRecord {
  int unit = 0;
  int id = -1;
  bool repeater = false;
  bool up = false;
  std::uint8_t num_components = 0;
  std::array<std::uint64_t, 8> components{};
};

/// One full (non-memo) quorum evaluation.
struct QuorumRecord {
  int unit = 0;
  std::uint8_t protocol = 0;  // index into RecordingSink::protocols()
  bool granted = false;
  dynvote::QuorumReason reason = dynvote::QuorumReason::kDeniedNoCopies;
  dynvote::QuorumSetMasks sets;
};

class RecordingSink final : public dynvote::TraceSink {
 public:
  /// `max_records` bounds each recorded input list; counts and gaps keep
  /// accumulating past it.
  explicit RecordingSink(std::size_t max_records);

  /// Brackets one experiment run. The gap before a unit's first callback
  /// is charged to that callback's emitter; the time after its last one
  /// is left unattributed.
  void BeginUnit(int unit);
  void EndUnit();

  void Write(const dynvote::TraceEvent& event) override;
  void WriteSim(double t, std::uint64_t seq, int replication, const char* op,
                std::uint32_t label) override;
  void WriteQuorum(double t, std::uint64_t seq, int replication,
                   const std::string& protocol, std::uint32_t label,
                   bool write, bool granted, dynvote::QuorumReason reason,
                   const dynvote::QuorumSetMasks& sets) override;
  void WriteAccess(double t, std::uint64_t seq, int replication,
                   const std::string& protocol, std::uint32_t label,
                   bool write, bool granted, dynvote::QuorumReason reason,
                   int origin) override;
  void WriteAvail(double t, std::uint64_t seq, int replication,
                  const std::string& protocol, std::uint32_t label,
                  bool available) override;

  std::int64_t gap_ns(Emitter e) const {
    return gap_ns_[static_cast<int>(e)];
  }
  std::uint64_t calls(Emitter e) const { return calls_[static_cast<int>(e)]; }
  std::uint64_t total_calls() const;
  /// Sum of every charged gap plus the recorder's own time.
  std::int64_t charged_ns() const;
  std::int64_t inside_ns() const { return inside_ns_; }
  std::uint64_t accesses_granted() const { return accesses_granted_; }

  const std::vector<std::string>& protocols() const { return protocols_; }
  const std::vector<FlipRecord>& flips() const { return flips_; }
  const std::vector<QuorumRecord>& quorums() const { return quorums_; }
  /// Dispatch times of each unit, in dispatch order.
  const std::vector<std::vector<double>>& dispatch_times() const {
    return dispatch_times_;
  }
  /// The first recorded events, verbatim, for the encoder replay.
  const std::vector<dynvote::TraceEvent>& sample() const { return sample_; }

 private:
  /// Charges the gap since the previous callback to `e`; returns the
  /// callback's entry stamp.
  Clock::time_point Enter(Emitter e);
  /// Closes a callback begun at `entry`.
  void Leave(Clock::time_point entry);
  std::uint8_t ProtocolIndex(const std::string& protocol);
  bool Keep(std::size_t size) const { return size < max_records_; }

  std::size_t max_records_;
  int unit_ = 0;
  Clock::time_point last_;
  std::array<std::int64_t, kNumEmitters> gap_ns_{};
  std::array<std::uint64_t, kNumEmitters> calls_{};
  std::int64_t inside_ns_ = 0;
  std::uint64_t accesses_granted_ = 0;

  std::vector<std::string> protocols_;
  std::vector<FlipRecord> flips_;
  std::vector<QuorumRecord> quorums_;
  std::vector<std::vector<double>> dispatch_times_;
  std::vector<dynvote::TraceEvent> sample_;
};

}  // namespace perfbench
