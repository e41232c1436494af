#include "sim/calendar_queue.h"

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"

namespace dynvote {
namespace {

/// Deterministic 64-bit LCG for generating schedules — the tests must be
/// a pure function of their source, so no std::random_device.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 11;
  }
  /// Uniform double in [0, range).
  double NextTime(double range) {
    return range * static_cast<double>(Next() % 1000000) / 1000000.0;
  }

 private:
  std::uint64_t state_;
};

std::vector<CalendarEvent> Drain(CalendarQueue& q) {
  std::vector<CalendarEvent> out;
  while (!q.Empty()) out.push_back(q.PopNext());
  return out;
}

void ExpectOrdered(const std::vector<CalendarEvent>& events) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_TRUE(events[i - 1].when < events[i].when ||
                (events[i - 1].when == events[i].when &&
                 events[i - 1].seq < events[i].seq))
        << "out of (when, seq) order at index " << i;
  }
}

TEST(CalendarQueueTest, StartsEmpty) {
  CalendarQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
}

TEST(CalendarQueueTest, PopsInTimeOrder) {
  CalendarQueue q;
  q.Schedule(3.0, 3);
  q.Schedule(1.0, 1);
  q.Schedule(2.0, 2);
  EXPECT_EQ(q.PopNext().payload, 1u);
  EXPECT_EQ(q.PopNext().payload, 2u);
  EXPECT_EQ(q.PopNext().payload, 3u);
  EXPECT_TRUE(q.Empty());
}

TEST(CalendarQueueTest, FifoWithinTimestamp) {
  CalendarQueue q;
  for (std::uint64_t i = 0; i < 32; ++i) q.Schedule(1.0, i);
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(q.PopNext().payload, i);
  }
}

TEST(CalendarQueueTest, PeekDoesNotPop) {
  CalendarQueue q;
  q.Schedule(2.0, 7);
  EXPECT_EQ(q.PeekTime(), 2.0);
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.PopNext().payload, 7u);
}

TEST(CalendarQueueTest, ReservedSeqOrdersAnEqualTimeEventInScheduleOrder) {
  // An event held outside the heap with a reserved seq fires exactly
  // where Schedule would have put it: after the equal-time events
  // scheduled before the reservation, before those scheduled after.
  CalendarQueue q;
  q.Schedule(1.0, 10);
  q.Schedule(0.5, 5);
  const CalendarEvent held{1.0, q.ReserveSeq(), 99};
  q.Schedule(1.0, 11);
  q.Schedule(2.0, 20);
  EXPECT_EQ(q.Size(), 4u);  // a reservation enqueues nothing

  std::vector<std::uint64_t> order;
  bool held_fired = false;
  while (!q.Empty()) {
    if (!held_fired && FiresBefore(held, q.Peek())) {
      order.push_back(held.payload);
      held_fired = true;
      continue;
    }
    order.push_back(q.PopNext().payload);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{5, 10, 99, 11, 20}));

  // The same schedule with the held event scheduled for real.
  CalendarQueue all;
  all.Schedule(1.0, 10);
  all.Schedule(0.5, 5);
  all.Schedule(1.0, 99);
  all.Schedule(1.0, 11);
  all.Schedule(2.0, 20);
  std::vector<std::uint64_t> heap_order;
  for (const CalendarEvent& e : Drain(all)) heap_order.push_back(e.payload);
  EXPECT_EQ(heap_order, order);
}

TEST(CalendarQueueTest, PeekIsTheNextPop) {
  CalendarQueue q;
  q.Schedule(3.0, 3);
  q.Schedule(1.0, 1);
  q.Schedule(1.0, 2);
  while (!q.Empty()) {
    const CalendarEvent top = q.Peek();
    const CalendarEvent popped = q.PopNext();
    EXPECT_EQ(top.when, popped.when);
    EXPECT_EQ(top.seq, popped.seq);
    EXPECT_EQ(top.payload, popped.payload);
  }
}

TEST(CalendarQueueTest, InterleavedScheduleAndPop) {
  // Schedules racing ahead of pops, including events inserted *before*
  // the cached minimum, which must invalidate it.
  CalendarQueue q;
  q.Schedule(10.0, 10);
  q.Schedule(20.0, 20);
  EXPECT_EQ(q.PeekTime(), 10.0);
  q.Schedule(5.0, 5);  // precedes the cached minimum
  EXPECT_EQ(q.PopNext().payload, 5u);
  q.Schedule(15.0, 15);
  EXPECT_EQ(q.PopNext().payload, 10u);
  EXPECT_EQ(q.PopNext().payload, 15u);
  EXPECT_EQ(q.PopNext().payload, 20u);
}

TEST(CalendarQueueTest, ParityWithEventQueueOnRandomSchedules) {
  // The ordering contract: CalendarQueue pops in exactly the order the
  // comparison-based EventQueue fires, including same-timestamp ties
  // (both break ties by global schedule order). Timestamps are drawn
  // from a small grid so ties are frequent.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Lcg rng(seed);
    CalendarQueue calendar;
    EventQueue baseline;
    std::vector<std::uint64_t> baseline_order;
    for (std::uint64_t i = 0; i < 2000; ++i) {
      double when = static_cast<double>(rng.Next() % 97) * 0.5;
      calendar.Schedule(when, i);
      baseline.Schedule(when,
                        [&baseline_order, i](SimTime) {
                          baseline_order.push_back(i);
                        });
    }
    while (!baseline.Empty()) baseline.RunNext();

    std::vector<CalendarEvent> popped = Drain(calendar);
    ASSERT_EQ(popped.size(), baseline_order.size());
    for (std::size_t i = 0; i < popped.size(); ++i) {
      ASSERT_EQ(popped[i].payload, baseline_order[i])
          << "divergence at pop " << i << " (seed " << seed << ")";
    }
  }
}

TEST(CalendarQueueTest, ParityWithEventQueueInterleaved) {
  // Mixed schedule/pop phases: pop a prefix, then insert more events
  // both before and after the current head — the regime the batched
  // engine produces (repairs scheduled mid-run, accesses racing ahead).
  Lcg rng(42);
  CalendarQueue calendar;
  EventQueue baseline;
  std::vector<std::uint64_t> baseline_order;
  std::vector<std::uint64_t> calendar_order;
  std::uint64_t next_id = 0;
  auto schedule_both = [&](double when) {
    std::uint64_t id = next_id++;
    calendar.Schedule(when, id);
    baseline.Schedule(
        when, [&baseline_order, id](SimTime) { baseline_order.push_back(id); });
  };

  double clock = 0.0;
  for (int phase = 0; phase < 50; ++phase) {
    for (int i = 0; i < 40; ++i) {
      schedule_both(clock + rng.NextTime(30.0));
    }
    for (int i = 0; i < 25 && !calendar.Empty(); ++i) {
      CalendarEvent e = calendar.PopNext();
      calendar_order.push_back(e.payload);
      clock = e.when;
      baseline.RunNext();
    }
  }
  while (!calendar.Empty()) {
    calendar_order.push_back(calendar.PopNext().payload);
    baseline.RunNext();
  }
  ASSERT_EQ(calendar_order.size(), baseline_order.size());
  EXPECT_EQ(calendar_order, baseline_order);
}

TEST(CalendarQueueTest, ResizeStressPreservesOrderAndCount) {
  // Push through several grow thresholds, then drain through the shrink
  // thresholds; every event must come back exactly once, in order.
  CalendarQueue q;
  Lcg rng(7);
  const std::size_t n = 10000;
  for (std::uint64_t i = 0; i < n; ++i) {
    q.Schedule(rng.NextTime(365.0), i);
  }
  EXPECT_EQ(q.Size(), n);
  std::vector<CalendarEvent> popped = Drain(q);
  ASSERT_EQ(popped.size(), n);
  ExpectOrdered(popped);
  std::vector<bool> seen(n, false);
  for (const CalendarEvent& e : popped) {
    ASSERT_LT(e.payload, n);
    ASSERT_FALSE(seen[e.payload]) << "payload popped twice";
    seen[e.payload] = true;
  }
}

TEST(CalendarQueueTest, SparseTailAcrossYears) {
  // Exponential-flavored spacing: a dense head plus events years out.
  // Exercises the sparse-tail fallback (nothing due within one calendar
  // lap of the floor).
  CalendarQueue q;
  double when = 0.0;
  Lcg rng(13);
  for (std::uint64_t i = 0; i < 500; ++i) {
    when += 0.001 + rng.NextTime(i < 450 ? 0.1 : 5000.0);
    q.Schedule(when, i);
  }
  std::vector<CalendarEvent> popped = Drain(q);
  ASSERT_EQ(popped.size(), 500u);
  ExpectOrdered(popped);
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(popped[i].payload, i);
  }
}

TEST(CalendarQueueTest, DeterministicAcrossIdenticalRuns) {
  // Two queues fed the same schedule/pop sequence must pop identical
  // (when, seq, payload) triples — the engine's bit-identity depends on
  // the queue being a pure function of its inputs.
  auto run = [] {
    CalendarQueue q;
    Lcg rng(99);
    std::vector<CalendarEvent> popped;
    for (int phase = 0; phase < 20; ++phase) {
      for (std::uint64_t i = 0; i < 100; ++i) {
        q.Schedule(rng.NextTime(1000.0), phase * 100 + i);
      }
      for (int i = 0; i < 60 && !q.Empty(); ++i) popped.push_back(q.PopNext());
    }
    while (!q.Empty()) popped.push_back(q.PopNext());
    return popped;
  };
  std::vector<CalendarEvent> a = run();
  std::vector<CalendarEvent> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].when, b[i].when);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
}

void ExpectSameEvent(const CalendarEvent& a, const CalendarEvent& b,
                     std::size_t step) {
  EXPECT_EQ(a.when, b.when) << "step " << step;
  EXPECT_EQ(a.seq, b.seq) << "step " << step;
  EXPECT_EQ(a.payload, b.payload) << "step " << step;
}

TEST(CalendarQueueTest, ReplaceTopMatchesPopThenSchedule) {
  // ReplaceTop is PopNext + Schedule in one sift: a twin queue driven by
  // the two-step form must hold the same events with the same seqs, so
  // both pop the identical (when, seq, payload) sequence. Timestamps sit
  // on a coarse grid, so equal times are everywhere, and a replacement
  // often lands at the very time it replaces.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Lcg rng(seed);
    CalendarQueue one_sift;
    CalendarQueue twin;
    std::vector<CalendarEvent> one_sift_order;
    std::vector<CalendarEvent> twin_order;
    std::uint64_t next_id = 0;
    double clock = 0.0;
    for (std::size_t step = 0; step < 4000; ++step) {
      // Nothing is scheduled before the last event popped, as in a
      // simulation: a follow-up is never due before the event it follows.
      const std::uint64_t coin = rng.Next() % 10;
      const double delay = static_cast<double>(rng.Next() % 7) * 0.5;
      if (coin < 3 || twin.Empty()) {
        one_sift.Schedule(clock + delay, next_id);
        twin.Schedule(clock + delay, next_id);
        ++next_id;
      } else if (coin < 5) {
        one_sift_order.push_back(one_sift.PopNext());
        twin_order.push_back(twin.PopNext());
        clock = twin_order.back().when;
      } else {
        clock = twin.Peek().when;
        one_sift_order.push_back(one_sift.Peek());
        one_sift.ReplaceTop(clock + delay, next_id);
        twin_order.push_back(twin.PopNext());
        twin.Schedule(clock + delay, next_id);
        ++next_id;
      }
      ASSERT_EQ(one_sift.Size(), twin.Size()) << "step " << step;
      if (!twin.Empty()) ExpectSameEvent(one_sift.Peek(), twin.Peek(), step);
    }
    while (!twin.Empty()) {
      one_sift_order.push_back(one_sift.PopNext());
      twin_order.push_back(twin.PopNext());
    }
    EXPECT_TRUE(one_sift.Empty());
    ASSERT_EQ(one_sift_order.size(), twin_order.size());
    for (std::size_t i = 0; i < twin_order.size(); ++i) {
      ExpectSameEvent(one_sift_order[i], twin_order[i], i);
    }
    ExpectOrdered(twin_order);
  }
}

TEST(CalendarQueueTest, IdenticalTimestampsEverywhere) {
  // Degenerate width: every event at the same instant. The queue must
  // fall back gracefully (width floor) and still honor schedule order.
  CalendarQueue q;
  for (std::uint64_t i = 0; i < 1000; ++i) q.Schedule(5.0, i);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(q.PopNext().payload, i);
  }
}

}  // namespace
}  // namespace dynvote
