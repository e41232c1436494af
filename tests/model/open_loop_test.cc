// The serving model's queueing stage (docs/serving.md): ServingStage's
// Lindley queue arithmetic, message attribution and metrics flush. The
// open-loop arrival streams are tested with the other processes in
// sample_path_test.cc.

#include "model/open_loop.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/metrics.h"
#include "repl/message_bus.h"

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
