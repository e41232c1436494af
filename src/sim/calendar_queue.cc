#include "sim/calendar_queue.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dynvote {

namespace {

/// Heap order for std::push_heap/pop_heap, which keep the *largest*
/// element first: "a after b" puts the (when, seq)-least event on top.
/// A closure type rather than a function pointer, so the heap
/// algorithms inline the comparison.
constexpr auto kAfter = [](const CalendarEvent& a, const CalendarEvent& b) {
  return FiresBefore(b, a);
};

}  // namespace

void CalendarQueue::Schedule(SimTime when, std::uint64_t payload) {
  DYNVOTE_CHECK_MSG(when >= 0.0 && std::isfinite(when),
                    "calendar event time must be finite and >= 0");
  heap_.push_back(CalendarEvent{when, next_seq_++, payload});
  std::push_heap(heap_.begin(), heap_.end(), kAfter);
}

SimTime CalendarQueue::PeekTime() const {
  DYNVOTE_CHECK_MSG(!heap_.empty(), "PeekTime on an empty calendar queue");
  return heap_.front().when;
}

CalendarEvent CalendarQueue::PopNext() {
  DYNVOTE_CHECK_MSG(!heap_.empty(), "PopNext on an empty calendar queue");
  std::pop_heap(heap_.begin(), heap_.end(), kAfter);
  CalendarEvent out = heap_.back();
  heap_.pop_back();
  return out;
}

void CalendarQueue::ReplaceTop(SimTime when, std::uint64_t payload) {
  DYNVOTE_CHECK_MSG(!heap_.empty(), "ReplaceTop on an empty calendar queue");
  DYNVOTE_CHECK_MSG(when >= 0.0 && std::isfinite(when),
                    "calendar event time must be finite and >= 0");
  const CalendarEvent event{when, next_seq_++, payload};
  // Move the hole left by the top down, pulling up the earlier child,
  // until no child fires before `event`: the order the std:: heap
  // algorithms keep under kAfter.
  const std::size_t size = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && FiresBefore(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!FiresBefore(heap_[child], event)) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = event;
}

}  // namespace dynvote
