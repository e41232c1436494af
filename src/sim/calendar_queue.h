// CalendarQueue: the event queue of both engines (through SamplePath,
// model/sample_path.h), a binary min-heap of plain-data events — a
// timestamp plus a caller-packed 64-bit payload — so a pop never touches
// a std::function. An engine runs one object at a time, so the heap holds
// one object's pending events (about a dozen on the paper network) and a
// log-depth sift beats any bucketing.
//
// The name is not a description: perfbench's traced replay
// (perfbench/src/traced.cc) instantiates the class by this name, so a
// rename has to land together with a change to the benchmark.
//
// Ordering contract (load-bearing for determinism): events pop in
// ascending (when, seq) order, where seq is the queue's schedule order.
// Two events with equal timestamps therefore fire in the order they were
// scheduled — the same tie-break as EventQueue.
//
// There is deliberately no Cancel: the one cancellation in the system
// (a pending site failure cancelled at maintenance start) is expressed
// by the caller as a generation counter carried in the payload and
// checked at dispatch, which keeps the queue free of tombstone
// bookkeeping on the hot path.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace dynvote {

/// One scheduled occurrence. `payload` is opaque to the queue.
struct CalendarEvent {
  SimTime when = 0.0;
  std::uint64_t seq = 0;
  std::uint64_t payload = 0;
};

/// Binary-heap priority queue over CalendarEvent, deterministic pop
/// order by (when, seq). Not thread-safe; timestamps must be >= 0.
class CalendarQueue {
 public:
  /// Enqueues an event; assigns the next sequence number.
  void Schedule(SimTime when, std::uint64_t payload);

  bool Empty() const { return heap_.empty(); }
  std::size_t Size() const { return heap_.size(); }

  /// Timestamp of the next event. Queue must be non-empty.
  SimTime PeekTime() const;

  /// Removes and returns the (when, seq)-least event. Queue must be
  /// non-empty.
  CalendarEvent PopNext();

 private:
  std::vector<CalendarEvent> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dynvote
