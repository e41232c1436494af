// The serving model inherits every determinism contract of the
// replicated harness: byte-identical outputs for any --jobs, collection
// that never perturbs statistics, --objects grouping falling back
// cleanly (the batched engine has no serving stage), and exact
// reconciliation between trace-derived and metrics-derived serving
// counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "core/registry.h"
#include "model/export.h"
#include "model/open_loop.h"
#include "model/replicated_experiment.h"
#include "obs/binary_trace.h"
#include "obs/trace_reader.h"

namespace dynvote {
namespace {

ExperimentOptions ServingShortOptions() {
  ExperimentOptions options;
  options.warmup = Days(15);
  options.num_batches = 3;
  options.batch_length = Days(40);
  options.seed = 20260808;
  options.serving.enabled = true;
  options.serving.arrival_rate_per_day = 50.0;
  options.serving.service_time_ms = 1.5;
  options.serving.msg_cost_ms = 0.2;
  return options;
}

ReplicationOptions Reps(int replications, int jobs, bool collect) {
  ReplicationOptions r;
  r.replications = replications;
  r.jobs = jobs;
  r.collect_traces = collect;
  r.collect_metrics = collect;
  return r;
}

Result<ReplicatedResults> RunServingConfigB(const ReplicationOptions& reps) {
  return RunReplicatedPaperExperiment('B', PaperProtocolNames(),
                                      ServingShortOptions(), reps);
}

/// The btrace file the collected bodies make: one header, then every
/// body in replication order.
std::string JoinTraces(const ReplicatedResults& results) {
  std::string out = BinaryTraceHeader(ServingShortOptions().seed);
  for (const std::string& body : results.traces) out += body;
  return out;
}

TEST(ServingDeterminismTest, ResultsAreIdenticalForAnyJobCount) {
  auto serial = RunServingConfigB(Reps(4, 1, /*collect=*/true));
  ASSERT_TRUE(serial.ok()) << serial.status();
  auto parallel = RunServingConfigB(Reps(4, 4, /*collect=*/true));
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  EXPECT_EQ(ReplicatedResultsToJson("config-B", *serial),
            ReplicatedResultsToJson("config-B", *parallel));
  ASSERT_EQ(serial->traces.size(), parallel->traces.size());
  for (std::size_t r = 0; r < serial->traces.size(); ++r) {
    EXPECT_EQ(serial->traces[r], parallel->traces[r]) << "replication " << r;
  }
  EXPECT_EQ(serial->metrics.ToJson(), parallel->metrics.ToJson());
  // The serving keys are actually there to compare.
  EXPECT_NE(serial->metrics.ToJson().find("serving_latency_ms"),
            std::string::npos);
}

TEST(ServingDeterminismTest, CollectionNeverPerturbsStatistics) {
  auto bare = RunServingConfigB(Reps(3, 2, /*collect=*/false));
  ASSERT_TRUE(bare.ok()) << bare.status();
  auto collected = RunServingConfigB(Reps(3, 2, /*collect=*/true));
  ASSERT_TRUE(collected.ok()) << collected.status();
  EXPECT_EQ(ReplicatedResultsToJson("config-B", *bare),
            ReplicatedResultsToJson("config-B", *collected));
  EXPECT_TRUE(bare->traces.empty());
  EXPECT_TRUE(bare->metrics.empty());
}

TEST(ServingDeterminismTest, ObjectGroupingDoesNotChangeServingResults) {
  // The batched multi-object engine has no serving stage; a serving run
  // with --objects > 1 must fall back to per-replication execution with
  // byte-identical output, never silently drop the serving model.
  auto plain = RunServingConfigB(Reps(3, 2, /*collect=*/false));
  ASSERT_TRUE(plain.ok()) << plain.status();
  ReplicationOptions grouped = Reps(3, 2, /*collect=*/false);
  grouped.objects = 3;
  auto via_groups = RunServingConfigB(grouped);
  ASSERT_TRUE(via_groups.ok()) << via_groups.status();
  EXPECT_EQ(ReplicatedResultsToJson("config-B", *plain),
            ReplicatedResultsToJson("config-B", *via_groups));
}

TEST(ServingDeterminismTest, TraceServingCountsReconcileWithMetrics) {
  auto traced = RunServingConfigB(Reps(3, 2, /*collect=*/true));
  ASSERT_TRUE(traced.ok()) << traced.status();

  std::istringstream trace(JoinTraces(*traced));
  TraceSummary summary = SummarizeTrace(trace);
  EXPECT_EQ(summary.malformed_lines, 0u);

  const auto& counters = traced->metrics.counters();
  auto counter = [&](const std::string& name,
                     const std::string& proto) -> std::uint64_t {
    auto it = counters.find(name + "{protocol=" + proto + "}");
    return it == counters.end() ? 0 : it->second;
  };

  ASSERT_FALSE(traced->aggregate.empty());
  for (const AggregatePolicyResult& agg : traced->aggregate) {
    ASSERT_EQ(summary.per_protocol.count(agg.name), 1u) << agg.name;
    const ProtocolTraceSummary& proto = summary.per_protocol.at(agg.name);

    // One serving event per served arrival: trace totals equal the
    // metrics counters exactly, and both equal the experiment's own
    // access accounting (every served arrival runs one UserAccess).
    const std::uint64_t arrivals = counter("serving_arrivals", agg.name);
    const std::uint64_t rejected = counter("serving_rejected", agg.name);
    ASSERT_GT(arrivals, 0u) << agg.name;
    EXPECT_EQ(proto.serving_events, arrivals - rejected) << agg.name;
    EXPECT_EQ(proto.serving_events,
              static_cast<std::uint64_t>(agg.accesses_attempted))
        << agg.name;
    EXPECT_EQ(counter("serving_granted", agg.name),
              static_cast<std::uint64_t>(agg.accesses_granted))
        << agg.name;
    EXPECT_EQ(counter("serving_granted", agg.name) +
                  counter("serving_denied", agg.name),
              proto.serving_events)
        << agg.name;

    // The latency histograms are the same HistogramData on both sides:
    // counts, buckets and extrema agree exactly. Only the sum is
    // association-sensitive (metrics add per-replication partial sums at
    // merge; the trace folds one value at a time), so it gets an
    // ulp-scale tolerance.
    auto hist = traced->metrics.histograms().find("serving_latency_ms{protocol=" +
                                                  agg.name + "}");
    ASSERT_NE(hist, traced->metrics.histograms().end()) << agg.name;
    EXPECT_EQ(proto.serving_latency_ms.count, hist->second.count) << agg.name;
    EXPECT_NEAR(proto.serving_latency_ms.sum, hist->second.sum,
                1e-9 * hist->second.sum)
        << agg.name;
    EXPECT_EQ(proto.serving_latency_ms.min, hist->second.min) << agg.name;
    EXPECT_EQ(proto.serving_latency_ms.max, hist->second.max) << agg.name;
    EXPECT_EQ(proto.serving_latency_ms.Buckets(), hist->second.Buckets())
        << agg.name;

    // Per-access control messages: the trace sums the per-event msgs
    // field; the metrics split the same traffic by kind in the access
    // phase (file copies are data plane, excluded from the per-access
    // control cost on both sides).
    std::uint64_t access_control = 0;
    const std::string phase_suffix =
        ",phase=access,protocol=" + agg.name + "}";
    for (const auto& [key, value] : counters) {
      if (key.rfind("serving_messages{kind=", 0) != 0) continue;
      if (key.size() < phase_suffix.size() ||
          key.compare(key.size() - phase_suffix.size(), phase_suffix.size(),
                      phase_suffix) != 0) {
        continue;
      }
      if (key.find("kind=file_copy,") != std::string::npos) continue;
      access_control += value;
    }
    EXPECT_EQ(proto.serving_messages, access_control) << agg.name;
  }
}

}  // namespace
}  // namespace dynvote
