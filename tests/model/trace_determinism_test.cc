// Tracing must be a pure observer: collecting traces/metrics may never
// perturb the statistical outputs, the event streams must be identical
// for any worker count and across same-seed runs, and the trace's access
// accounting must reconcile exactly with the experiment's counters.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "core/registry.h"
#include "model/export.h"
#include "model/replicated_experiment.h"
#include "obs/async_writer.h"
#include "obs/binary_trace.h"
#include "obs/trace_reader.h"

namespace dynvote {
namespace {

ExperimentOptions ShortOptions() {
  ExperimentOptions options;
  options.warmup = Days(30);
  options.num_batches = 5;
  options.batch_length = Years(2);
  options.seed = 12345;
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

Result<ReplicatedResults> RunConfigB(const ReplicationOptions& reps) {
  return RunReplicatedPaperExperiment('B', PaperProtocolNames(),
                                      ShortOptions(), reps);
}

/// The btrace file the collected bodies make: one header, then every
/// body in replication order.
std::string JoinTraces(const ReplicatedResults& results) {
  std::string out = BinaryTraceHeader(ShortOptions().seed);
  for (const std::string& body : results.traces) out += body;
  return out;
}

TEST(TraceDeterminismTest, TracingNeverChangesStatisticalOutputs) {
  auto untraced = RunConfigB(Reps(3, 2, /*collect=*/false));
  ASSERT_TRUE(untraced.ok()) << untraced.status();
  auto traced = RunConfigB(Reps(3, 2, /*collect=*/true));
  ASSERT_TRUE(traced.ok()) << traced.status();

  // Byte-identical exported JSON: the strongest form of "no perturbation".
  EXPECT_EQ(ReplicatedResultsToJson("config-B", *untraced),
            ReplicatedResultsToJson("config-B", *traced));
  EXPECT_TRUE(untraced->traces.empty());
  EXPECT_TRUE(untraced->metrics.empty());
  ASSERT_EQ(traced->traces.size(), 3u);
  EXPECT_FALSE(traced->metrics.empty());
}

TEST(TraceDeterminismTest, TracesAreIdenticalForAnyJobCount) {
  auto serial = RunConfigB(Reps(4, 1, /*collect=*/true));
  ASSERT_TRUE(serial.ok()) << serial.status();
  auto parallel = RunConfigB(Reps(4, 4, /*collect=*/true));
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  EXPECT_EQ(ReplicatedResultsToJson("config-B", *serial),
            ReplicatedResultsToJson("config-B", *parallel));
  ASSERT_EQ(serial->traces.size(), parallel->traces.size());
  for (std::size_t r = 0; r < serial->traces.size(); ++r) {
    EXPECT_EQ(serial->traces[r], parallel->traces[r]) << "replication " << r;
  }
  EXPECT_EQ(serial->metrics.ToJson(), parallel->metrics.ToJson());
}

TEST(TraceDeterminismTest, SameSeedRunsProduceIdenticalEventStreams) {
  auto first = RunConfigB(Reps(2, 2, /*collect=*/true));
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = RunConfigB(Reps(2, 2, /*collect=*/true));
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(first->traces.size(), second->traces.size());
  for (std::size_t r = 0; r < first->traces.size(); ++r) {
    EXPECT_EQ(first->traces[r], second->traces[r]) << "replication " << r;
  }
}

TEST(TraceDeterminismTest, EventsCarryTheirReplicationIndex) {
  auto traced = RunConfigB(Reps(2, 2, /*collect=*/true));
  ASSERT_TRUE(traced.ok()) << traced.status();
  ASSERT_EQ(traced->trace_events.size(), traced->traces.size());
  for (std::size_t r = 0; r < traced->traces.size(); ++r) {
    ASSERT_FALSE(traced->traces[r].empty());
    std::string_view records = traced->traces[r];
    BinaryRecordDecoder decoder;
    TraceEvent event;
    std::uint64_t events = 0;
    for (;;) {
      auto more = decoder.NextEvent(&records, &event);
      ASSERT_TRUE(more.ok()) << more.status();
      if (!*more) break;
      ++events;
      ASSERT_EQ(event.replication, static_cast<int>(r))
          << "replication " << r << " event " << events;
    }
    EXPECT_EQ(events, traced->trace_events[r]) << "replication " << r;
  }
}

TEST(TraceDeterminismTest, BinaryTracesAreIdenticalForAnyJobCount) {
  // Collected bodies are btrace records whatever the worker count; this
  // pins a different replication count and pool width than the test
  // above.
  auto serial = RunConfigB(Reps(3, 1, /*collect=*/true));
  ASSERT_TRUE(serial.ok()) << serial.status();
  auto parallel = RunConfigB(Reps(3, 3, /*collect=*/true));
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ASSERT_EQ(serial->traces.size(), 3u);
  for (std::size_t r = 0; r < serial->traces.size(); ++r) {
    EXPECT_EQ(serial->traces[r], parallel->traces[r]) << "replication " << r;
  }
  EXPECT_EQ(serial->trace_events, parallel->trace_events);
  EXPECT_EQ(ReplicatedResultsToJson("config-B", *serial),
            ReplicatedResultsToJson("config-B", *parallel));
}

TEST(TraceDeterminismTest, BinaryTraceConvertsToTheExactJsonlRun) {
  // The end-to-end byte-identity contract behind `dynvote trace-convert`:
  // the collected bodies behind one header, decoded to JSONL, match what
  // `repeat --trace-out=X.jsonl` writes — the header line, then the same
  // bodies rendered by a JsonlPageSink in replication order.
  auto traced = RunConfigB(Reps(2, 2, /*collect=*/true));
  ASSERT_TRUE(traced.ok()) << traced.status();

  const std::uint64_t seed = ShortOptions().seed;
  std::istringstream binary_file(JoinTraces(*traced));
  std::ostringstream converted;
  auto events = ConvertBinaryTraceToJsonl(binary_file, converted);
  ASSERT_TRUE(events.ok()) << events.status();
  EXPECT_GT(*events, 0u);
  EXPECT_EQ(*events, traced->trace_events[0] + traced->trace_events[1]);

  std::ostringstream rendered;
  rendered << TraceHeaderLine(seed) << "\n";
  JsonlPageSink pages(&rendered);
  for (std::string& body : traced->traces) pages.WritePage(&body);
  pages.Flush();
  ASSERT_TRUE(pages.ok()) << pages.error();
  EXPECT_EQ(converted.str(), rendered.str());
}

TEST(TraceDeterminismTest, TraceAccessCountsReconcileWithResults) {
  auto traced = RunConfigB(Reps(3, 2, /*collect=*/true));
  ASSERT_TRUE(traced.ok()) << traced.status();

  std::istringstream trace(JoinTraces(*traced));
  TraceSummary summary = SummarizeTrace(trace);
  EXPECT_EQ(summary.malformed_lines, 0u);

  ASSERT_FALSE(traced->aggregate.empty());
  for (const AggregatePolicyResult& agg : traced->aggregate) {
    ASSERT_EQ(summary.per_protocol.count(agg.name), 1u) << agg.name;
    const ProtocolTraceSummary& proto = summary.per_protocol.at(agg.name);
    // Exactly one access event per UserAccess call: the trace totals
    // reconcile with the experiment's own counters, not approximately
    // but exactly.
    EXPECT_EQ(proto.accesses,
              static_cast<std::uint64_t>(agg.accesses_attempted))
        << agg.name;
    EXPECT_EQ(proto.granted,
              static_cast<std::uint64_t>(agg.accesses_granted))
        << agg.name;
    EXPECT_EQ(proto.denied, proto.accesses - proto.granted) << agg.name;

    // The merged metrics shard agrees with both.
    auto counter = [&](const std::string& name) -> std::uint64_t {
      auto it = traced->metrics.counters().find(name + "{protocol=" +
                                                agg.name + "}");
      return it == traced->metrics.counters().end() ? 0 : it->second;
    };
    EXPECT_EQ(counter("accesses_attempted"), proto.accesses) << agg.name;
    EXPECT_EQ(counter("accesses_granted"), proto.granted) << agg.name;
  }
}

}  // namespace
}  // namespace dynvote
