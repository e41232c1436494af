// A discrete-event calendar: a binary min-heap of (time, sequence) keyed
// events with O(log n) insertion and extraction and O(1) lazy cancellation.
// Ties in time are broken by insertion order, so runs are deterministic.
//
// Neither engine uses it: both run on CalendarQueue through SamplePath
// (model/sample_path.h). It stays because perfbench's traced replay
// (perfbench/src/traced.cc) times it, and goes with the next change to
// the benchmark.

#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/time.h"

namespace dynvote {

/// Opaque handle identifying a scheduled event; used for cancellation.
using EventId = std::uint64_t;

/// Sentinel returned when no event was scheduled.
inline constexpr EventId kInvalidEventId = 0;

/// Priority queue of timed callbacks.
///
/// Not thread-safe: the simulator is single-threaded by design (discrete
/// event simulation has a total order of events).
class EventQueue {
 public:
  using Callback = std::function<void(SimTime)>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `callback` to fire at absolute time `when`. Returns a handle
  /// that can be passed to Cancel().
  EventId Schedule(SimTime when, Callback callback);

  /// Cancels a scheduled event. Returns true if the event existed and had
  /// not yet fired. Cancellation is lazy: the entry stays in the heap and
  /// is dropped when popped.
  bool Cancel(EventId id);

  /// True iff no live events remain.
  bool Empty() const { return live_.empty(); }

  /// Number of live (scheduled, uncancelled, unfired) events.
  std::size_t Size() const { return live_.size(); }

  /// Time of the earliest live event. Must not be called when Empty().
  SimTime PeekTime();

  /// Pops and runs the earliest live event. Returns its time. Must not be
  /// called when Empty().
  SimTime RunNext();

  /// Removes all events.
  void Clear();

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    EventId id;
    Callback callback;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Drops cancelled entries from the heap top.
  void SkimCancelled();

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  // Audited for iteration-order hazards: both sets are membership-only —
  // insert/erase/find/size/clear, never iterated — so their unordered
  // layout cannot leak into event order; dispatch order comes solely
  // from the (time, seq) heap above.
  // dynvote-lint: allow(unordered-container)
  std::unordered_set<EventId> live_;
  // dynvote-lint: allow(unordered-container)
  std::unordered_set<EventId> cancelled_;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
};

}  // namespace dynvote
