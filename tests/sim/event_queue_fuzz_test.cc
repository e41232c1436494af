// Randomized differential test: EventQueue against a trivially correct
// reference implementation (sorted multimap), over long interleavings of
// schedule / cancel / run operations.

#include <map>
#include <optional>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace dynvote {
namespace {

class ReferenceQueue {
 public:
  EventId Schedule(SimTime when) {
    EventId id = next_id_++;
    by_time_.emplace(std::make_pair(when, id), id);
    return id;
  }

  bool Cancel(EventId id) {
    for (auto it = by_time_.begin(); it != by_time_.end(); ++it) {
      if (it->second == id) {
        by_time_.erase(it);
        return true;
      }
    }
    return false;
  }

  bool Empty() const { return by_time_.empty(); }
  std::size_t Size() const { return by_time_.size(); }

  /// Pops the earliest event (FIFO within equal times thanks to the id
  /// tie-break) and returns (time, id).
  std::pair<SimTime, EventId> Pop() {
    auto it = by_time_.begin();
    auto out = std::make_pair(it->first.first, it->second);
    by_time_.erase(it);
    return out;
  }

 private:
  // key: (time, id) — id order equals insertion order, giving FIFO.
  std::map<std::pair<SimTime, EventId>, EventId> by_time_;
  EventId next_id_ = 1;
};

TEST(EventQueueFuzzTest, MatchesReferenceOverRandomOps) {
  Rng rng(0xD1FF);
  // Written by every fired callback: the step that scheduled it.
  // Declared before the queue so it outlives every callback still pending
  // when the queue is destroyed.
  int fired_step = -1;
  EventQueue queue;
  ReferenceQueue reference;
  std::vector<EventId> live_ids;  // same ids in both (issued in lockstep)
  std::map<EventId, int> scheduled_at;  // id -> step that scheduled it
  std::optional<EventId> last_fired;

  for (int step = 0; step < 50000; ++step) {
    int op = static_cast<int>(rng.NextBounded(10));
    if (op < 5) {  // schedule
      SimTime when = static_cast<SimTime>(rng.NextBounded(1000));
      EventId id = queue.Schedule(
          when, [&fired_step, step](SimTime) { fired_step = step; });
      EventId ref_id = reference.Schedule(when);
      ASSERT_EQ(id, ref_id) << "id streams diverged at step " << step;
      live_ids.push_back(id);
      scheduled_at[id] = step;
    } else if (op < 7) {  // cancel something (live, fired, or bogus)
      EventId target;
      if (!live_ids.empty() && rng.NextBernoulli(0.7)) {
        std::size_t idx = rng.NextBounded(live_ids.size());
        target = live_ids[idx];
      } else if (last_fired.has_value() && rng.NextBernoulli(0.5)) {
        target = *last_fired;  // already fired: both must refuse
      } else {
        target = 999999 + rng.NextBounded(100);  // never issued
      }
      ASSERT_EQ(queue.Cancel(target), reference.Cancel(target))
          << "cancel divergence at step " << step;
    } else {  // run next
      ASSERT_EQ(queue.Empty(), reference.Empty());
      if (queue.Empty()) continue;
      auto [ref_time, ref_id] = reference.Pop();
      ASSERT_EQ(queue.PeekTime(), ref_time) << "step " << step;
      SimTime t = queue.RunNext();
      ASSERT_EQ(t, ref_time) << "step " << step;
      ASSERT_EQ(fired_step, scheduled_at.at(ref_id)) << "step " << step;
      last_fired = ref_id;
    }
    ASSERT_EQ(queue.Size(), reference.Size()) << "step " << step;
  }

  // Drain: remaining events must come out in identical order.
  while (!reference.Empty()) {
    auto [ref_time, ref_id] = reference.Pop();
    ASSERT_EQ(queue.RunNext(), ref_time);
    ASSERT_EQ(fired_step, scheduled_at.at(ref_id));
  }
  EXPECT_TRUE(queue.Empty());
}

}  // namespace
}  // namespace dynvote
