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

}  // namespace dynvote
