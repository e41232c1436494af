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
// A caller may keep an event outside the heap and still order it exactly
// where Schedule would have: ReserveSeq() takes the seq Schedule would
// have assigned, and FiresBefore() compares that (when, seq) against
// Peek(). SamplePath keeps its workload streams in such slots — the
// closed-loop access, or one open-loop arrival stream per replica — so
// the heap holds only the failure, repair and maintenance processes, and
// the batched engine's repeated accesses and the solo engine's untraced
// serving arrivals are drained without a heap push and pop each.
//
// A step that pops the top and schedules a follow-up can do both in one
// sift: ReplaceTop() overwrites the top with the new event (its seq
// assigned exactly as Schedule would assign it) and sifts it down once,
// where PopNext() then Schedule() sift twice. Every (when, seq) key is
// unique, so the pop order is the same either way. SamplePath leaves the
// event it is applying on the top until its first follow-up replaces it.
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
#include "util/logging.h"

namespace dynvote {

/// One scheduled occurrence. `payload` is opaque to the queue.
struct CalendarEvent {
  SimTime when = 0.0;
  std::uint64_t seq = 0;
  std::uint64_t payload = 0;
};

/// The queue's pop order: true iff `a` fires before `b`, i.e. (a.when,
/// a.seq) < (b.when, b.seq).
constexpr bool FiresBefore(const CalendarEvent& a, const CalendarEvent& b) {
  return a.when < b.when || (a.when == b.when && a.seq < b.seq);
}

/// Binary-heap priority queue over CalendarEvent, deterministic pop
/// order by (when, seq). Not thread-safe; timestamps must be >= 0.
class CalendarQueue {
 public:
  /// Enqueues an event; assigns the next sequence number.
  void Schedule(SimTime when, std::uint64_t payload);

  /// Takes the next sequence number without enqueueing anything, for an
  /// event the caller holds outside the heap (see the header comment).
  std::uint64_t ReserveSeq() { return next_seq_++; }

  bool Empty() const { return heap_.empty(); }
  std::size_t Size() const { return heap_.size(); }

  /// Timestamp of the next event. Queue must be non-empty.
  SimTime PeekTime() const;

  /// The (when, seq)-least event, left in place. Queue must be
  /// non-empty.
  const CalendarEvent& Peek() const {
    DYNVOTE_DCHECK_MSG(!heap_.empty(), "Peek on an empty calendar queue");
    return heap_.front();
  }

  /// Removes and returns the (when, seq)-least event. Queue must be
  /// non-empty.
  CalendarEvent PopNext();

  /// Removes the (when, seq)-least event and enqueues one at `when` with
  /// the next sequence number, in one sift: the same pending events, with
  /// the same seqs, as PopNext() followed by Schedule(when, payload).
  /// Queue must be non-empty.
  void ReplaceTop(SimTime when, std::uint64_t payload);

 private:
  std::vector<CalendarEvent> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dynvote
