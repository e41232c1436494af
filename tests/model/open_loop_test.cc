// The serving model's queueing stage (docs/serving.md): ServingStage's
// Lindley queue arithmetic, message attribution and metrics flush. The
// open-loop arrival streams are tested with the other processes in
// sample_path_test.cc.

#include "model/open_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "obs/metrics.h"
#include "repl/message_bus.h"
#include "util/rng.h"

namespace dynvote {
namespace {

ServingOptions TestServing() {
  ServingOptions o;
  o.enabled = true;
  o.arrival_rate_per_day = 90.0;
  o.service_time_ms = 2.0;
  o.msg_cost_ms = 0.5;
  o.write_fraction = 0.5;
  return o;
}

TEST(ServingStageTest, FirstArrivalLatencyIsTheServiceTime) {
  ServingStage stage("ODV", TestServing(), /*num_sites=*/4);
  // service = 2.0 ms base + 0.5 ms x 4 control messages.
  const ServingStage::Outcome out =
      stage.OnArrival(/*now_days=*/10.0, /*origin=*/2, /*msgs=*/4,
                      /*granted=*/true);
  EXPECT_NEAR(out.latency_ms, 4.0, 1e-6);
  EXPECT_EQ(out.depth, 0u);
  EXPECT_EQ(stage.served(), 1u);
  EXPECT_EQ(stage.granted(), 1u);
  EXPECT_EQ(stage.rejected(), 0u);
}

TEST(ServingStageTest, BackToBackArrivalsQueueLindleyStyle) {
  ServingStage stage("ODV", TestServing(), 4);
  const double t = 1.0;
  const auto first = stage.OnArrival(t, 0, 0, true);  // 2 ms service
  EXPECT_NEAR(first.latency_ms, 2.0, 1e-6);
  const auto second = stage.OnArrival(t, 0, 0, false);  // waits for first
  EXPECT_NEAR(second.latency_ms, 4.0, 1e-6);
  EXPECT_EQ(second.depth, 1u);
  // A different replica has its own server.
  const auto elsewhere = stage.OnArrival(t, 3, 0, true);
  EXPECT_NEAR(elsewhere.latency_ms, 2.0, 1e-6);
  EXPECT_EQ(elsewhere.depth, 0u);
  // Once both completions have passed, the origin queue drains.
  const auto after = stage.OnArrival(t + 1.0, 0, 0, true);
  EXPECT_NEAR(after.latency_ms, 2.0, 1e-6);
  EXPECT_EQ(after.depth, 0u);
  EXPECT_EQ(stage.served(), 4u);
  EXPECT_EQ(stage.granted(), 3u);
}

/// The per-replica queue as it was first written — a busy-until instant
/// and a std::deque of completions, pruned from the front at every
/// arrival — kept here as the reference for ServingStage's flat buffer.
class DequeQueueReference {
 public:
  DequeQueueReference(const ServingOptions& options, int num_sites)
      : options_(options),
        busy_until_(static_cast<std::size_t>(num_sites), 0.0),
        in_flight_(static_cast<std::size_t>(num_sites)) {}

  ServingStage::Outcome OnArrival(double now_days, SiteId origin,
                                  std::uint64_t msgs) {
    auto slot = static_cast<std::size_t>(origin);
    std::deque<double>& pending = in_flight_[slot];
    while (!pending.empty() && pending.front() <= now_days) {
      pending.pop_front();
    }
    auto depth = static_cast<std::uint32_t>(pending.size());
    const double service_days =
        (options_.service_time_ms +
         options_.msg_cost_ms * static_cast<double>(msgs)) /
        kMillisPerDay;
    const double start = std::max(now_days, busy_until_[slot]);
    const double completion = start + service_days;
    busy_until_[slot] = completion;
    pending.push_back(completion);
    ServingStage::Outcome outcome;
    outcome.latency_ms = (completion - now_days) * kMillisPerDay;
    outcome.depth = depth;
    return outcome;
  }

 private:
  ServingOptions options_;
  std::vector<double> busy_until_;
  std::vector<std::deque<double>> in_flight_;
};

TEST(ServingStageTest, LoadedQueuesMatchTheDequeReference) {
  // Long service times against arrivals a few milliseconds apart, in
  // phases from light load to overload and back, so queues build to
  // hundreds deep, drain, and the servers go idle between phases: every
  // latency and depth must equal the reference's, bit for bit.
  ServingOptions options = TestServing();
  options.service_time_ms = 40.0;
  options.msg_cost_ms = 3.0;
  constexpr int kSites = 4;
  ServingStage stage("ODV", options, kSites);
  DequeQueueReference reference(options, kSites);
  HistogramData expected_latency;
  Rng rng(20260704);
  double now = 1.0;
  std::uint32_t max_depth = 0;
  std::uint64_t granted = 0;
  int arrivals = 0;
  // Mean gap per phase, in milliseconds, against ~50 ms of service.
  for (double gap_ms : {400.0, 60.0, 12.0, 2000.0, 9.0, 14.0, 30.0, 5.0}) {
    for (int i = 0; i < 6000; ++i, ++arrivals) {
      now += rng.NextExponential(gap_ms) / kMillisPerDay;
      const auto origin = static_cast<SiteId>(rng.NextBounded(kSites));
      const std::uint64_t msgs = rng.NextBounded(7);
      const bool grant = rng.NextBernoulli(0.9);
      const ServingStage::Outcome got =
          stage.OnArrival(now, origin, msgs, grant);
      const ServingStage::Outcome want =
          reference.OnArrival(now, origin, msgs);
      ASSERT_EQ(got.latency_ms, want.latency_ms) << "arrival " << arrivals;
      ASSERT_EQ(got.depth, want.depth) << "arrival " << arrivals;
      expected_latency.Observe(want.latency_ms);
      max_depth = std::max(max_depth, want.depth);
      granted += grant ? 1 : 0;
    }
    // A long pause: every server idles before the next phase.
    now += 1.0;
  }
  EXPECT_GT(max_depth, 300u);
  EXPECT_EQ(stage.served(), static_cast<std::uint64_t>(arrivals));
  EXPECT_EQ(stage.granted(), granted);
  EXPECT_EQ(stage.latency_ms().Buckets(), expected_latency.Buckets());
  EXPECT_EQ(stage.latency_ms().sum, expected_latency.sum);
  MetricsShard shard;
  stage.Finish(&shard);
  EXPECT_EQ(shard.gauges().at("serving_queue_depth_max{protocol=ODV}"),
            static_cast<double>(max_depth));
}

TEST(ServingStageTest, AttributeMessagesReturnsTheControlDelta) {
  ServingStage stage("ODV", TestServing(), 2);
  MessageCounter counter;
  counter.Add(MessageKind::kProbe, 3);
  counter.Add(MessageKind::kFileCopy, 2);  // data plane: not control cost
  EXPECT_EQ(stage.AttributeMessages(counter, ServingStage::Phase::kAccess),
            3u);
  counter.Add(MessageKind::kCommit, 1);
  counter.Add(MessageKind::kInstantRefresh, 4);
  EXPECT_EQ(stage.AttributeMessages(counter, ServingStage::Phase::kRefresh),
            5u);
  // No movement since the last call: zero delta.
  EXPECT_EQ(stage.AttributeMessages(counter, ServingStage::Phase::kAccess),
            0u);
}

TEST(ServingStageTest, FinishFlushesTheServingKeys) {
  ServingStage stage("ODV", TestServing(), 2);
  MessageCounter counter;
  counter.Add(MessageKind::kProbe, 2);
  counter.Add(MessageKind::kFileCopy, 1);
  const std::uint64_t msgs =
      stage.AttributeMessages(counter, ServingStage::Phase::kAccess);
  EXPECT_EQ(msgs, 2u);
  stage.OnArrival(0.0, 0, msgs, true);
  stage.OnArrival(0.0, 0, 0, false);
  stage.OnRejected();
  MetricsShard shard;
  stage.Finish(&shard);
  EXPECT_EQ(shard.counters().at("serving_arrivals{protocol=ODV}"), 3u);
  EXPECT_EQ(shard.counters().at("serving_rejected{protocol=ODV}"), 1u);
  EXPECT_EQ(shard.counters().at("serving_granted{protocol=ODV}"), 1u);
  EXPECT_EQ(shard.counters().at("serving_denied{protocol=ODV}"), 1u);
  EXPECT_EQ(shard.counters().at(
                "serving_messages{kind=probe,phase=access,protocol=ODV}"),
            2u);
  EXPECT_EQ(
      shard.counters().at(
          "serving_messages{kind=file_copy,phase=access,protocol=ODV}"),
      1u);
  // Kinds the protocol never sent are not exported as zero cells.
  EXPECT_EQ(shard.counters().count(
                "serving_messages{kind=commit,phase=access,protocol=ODV}"),
            0u);
  const HistogramData& lat =
      shard.histograms().at("serving_latency_ms{protocol=ODV}");
  EXPECT_EQ(lat.count, 2u);
  EXPECT_NEAR(lat.min, 3.0, 1e-6);  // 2.0 base + 0.5 x 2 msgs
  EXPECT_EQ(shard.gauges().at("serving_queue_depth_max{protocol=ODV}"),
            1.0);
  stage.Finish(nullptr);  // null shard is a safe no-op
}

}  // namespace
}  // namespace dynvote
