// The serving drain (model/arrival_drain.h) replays each protocol's
// learned reaction to an arrival instead of running it. Traced runs step
// every arrival, so a run traced to an in-memory sink is the reference:
// the same run untraced must produce byte-identical result rows and
// metrics JSON — every message count, metric cell, latency and outage.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/dynamic_voting.h"
#include "core/registry.h"
#include "model/arrival_drain.h"
#include "model/experiment.h"
#include "model/site_profile.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "util/append.h"
#include "test_text.h"

namespace dynvote {
namespace {

/// Keeps nothing but a count: attaching it makes the run traced.
class CountingSink final : public TraceSink {
 public:
  void Write(const TraceEvent&) override { CountEvent(); }
  void WriteSim(double, std::uint64_t, int, const char*,
                std::uint32_t) override {
    CountEvent();
  }
  void WriteQuorum(double, std::uint64_t, int, const std::string&,
                   std::uint32_t, bool, bool, QuorumReason,
                   const QuorumSetMasks&) override {
    CountEvent();
  }
  void WriteAccess(double, std::uint64_t, int, const std::string&,
                   std::uint32_t, bool, bool, QuorumReason, int) override {
    CountEvent();
  }
  void WriteAvail(double, std::uint64_t, int, const std::string&,
                  std::uint32_t, bool) override {
    CountEvent();
  }
};

using Protocols = std::vector<std::unique_ptr<ConsistencyProtocol>>;
using Factory = std::function<Protocols()>;

ExperimentOptions DrainOptions(std::uint64_t seed, double write_fraction,
                               bool quorum_cache) {
  ExperimentOptions options;
  options.warmup = Days(4);
  options.num_batches = 2;
  options.batch_length = Days(8);
  options.seed = seed;
  options.quorum_cache = quorum_cache;
  options.serving.enabled = true;
  options.serving.arrival_rate_per_day = 200.0;
  options.serving.write_fraction = write_fraction;
  return options;
}

/// Every field of every row, doubles at 17 significant digits.
void AppendRows(const std::vector<PolicyResult>& rows, std::string* out) {
  for (const PolicyResult& r : rows) {
    out->append(r.name);
    for (double value :
         {r.unavailability, r.stats.mean, r.stats.stddev,
          r.stats.ci95_halfwidth, r.mean_unavailable_duration,
          r.measured_time, r.time_to_first_outage}) {
      out->push_back(' ');
      AppendDouble(value, out);
    }
    for (std::uint64_t value :
         {static_cast<std::uint64_t>(r.num_unavailable_periods),
          r.accesses_attempted, r.accesses_granted, r.dual_majority_instants}) {
      out->push_back(' ');
      AppendDecimal(value, out);
    }
    out->push_back(' ');
    out->append(r.messages.ToString());
    out->push_back('\n');
  }
}

/// One run of `make()`'s protocols, traced or not, with metrics: its rows
/// and then its metrics JSON.
std::string RunOnce(const PaperNetwork& network,
                    const ExperimentOptions& options, const Factory& make,
                    bool traced, MetricsShard* metrics_out = nullptr) {
  CountingSink sink;
  MetricsShard shard;
  ObsContext obs;
  obs.sink = traced ? &sink : nullptr;
  obs.metrics = &shard;
  ExperimentSpec spec;
  spec.topology = network.topology;
  spec.profiles = network.profiles;
  spec.options = options;
  spec.obs = &obs;
  auto rows = RunSoloAvailabilityExperiment(spec, make());
  EXPECT_TRUE(rows.ok()) << rows.status();
  if (!rows.ok()) return "";
  EXPECT_EQ(traced, sink.total_events() > 0);
  std::string out;
  AppendRows(*rows, &out);
  out += shard.ToJson();
  if (metrics_out != nullptr) *metrics_out = shard;
  return out;
}

void ExpectDrainedEqualsStepped(const PaperNetwork& network,
                                const ExperimentOptions& options,
                                const Factory& make,
                                const std::string& label) {
  const std::string stepped = RunOnce(network, options, make, true);
  const std::string drained = RunOnce(network, options, make, false);
  ASSERT_FALSE(stepped.empty()) << label;
  EXPECT_EQ(drained, stepped) << label;
}

Factory PaperPolicies(const PaperNetwork& network, SiteSet placement) {
  return [&network, placement] {
    Protocols protocols;
    for (const std::string& name : PaperProtocolNames()) {
      auto p = MakeProtocolByName(name, network.topology, placement);
      EXPECT_TRUE(p.ok()) << p.status();
      protocols.push_back(p.MoveValue());
    }
    return protocols;
  };
}

class ServingDrainTest : public ::testing::TestWithParam<char> {};

TEST_P(ServingDrainTest, DrainedRunsEqualSteppedRuns) {
  auto network = MakePaperNetwork();
  ASSERT_TRUE(network.ok());
  const Factory make =
      PaperPolicies(*network, PaperConfigurationFor(GetParam())->placement);
  for (std::uint64_t seed : {1u, 7u, 20260704u, 99991u}) {
    for (double write_fraction : {0.0, 0.5, 1.0}) {
      for (bool quorum_cache : {true, false}) {
        ExpectDrainedEqualsStepped(
            *network, DrainOptions(seed, write_fraction, quorum_cache), make,
            testing_util::Cat({std::string(1, GetParam()), " seed=",
                               std::to_string(seed), " writes=",
                               std::to_string(write_fraction), " cache=",
                               std::to_string(quorum_cache)}));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperConfigurations, ServingDrainTest,
                         ::testing::Values('A', 'B', 'C', 'D', 'E', 'F', 'G',
                                           'H'));

TEST(ServingDrainLoadTest, QueueBuildingLoadDrainsLikeSteps) {
  // Service times near the arrival gap (about 36 minutes per replica at
  // 200 arrivals a day over five replicas), so queues build: the drained
  // arrivals must still reach every replica's queue in the stepped order.
  auto network = MakePaperNetwork();
  ASSERT_TRUE(network.ok());
  const Factory make =
      PaperPolicies(*network, PaperConfigurationFor('A')->placement);
  for (std::uint64_t seed : {5u, 20260704u}) {
    ExperimentOptions options = DrainOptions(seed, 0.5, true);
    options.serving.service_time_ms = 1.2e6;
    options.serving.msg_cost_ms = 2e4;
    MetricsShard stepped_metrics;
    const std::string stepped =
        RunOnce(*network, options, make, true, &stepped_metrics);
    const std::string drained = RunOnce(*network, options, make, false);
    ASSERT_FALSE(stepped.empty());
    EXPECT_EQ(drained, stepped) << "seed=" << seed;
    for (const std::string& name : PaperProtocolNames()) {
      EXPECT_GT(ReadServingRow(stepped_metrics, name).queue_depth_max, 0.0)
          << name << " seed=" << seed;
    }
  }
}

TEST(ServingDrainFamiliesTest, WeightedWitnessAndSteppedFamilies) {
  auto network = MakePaperNetwork();
  ASSERT_TRUE(network.ok());
  const SiteSet placement{0, 1, 3, 5, 7};
  const PaperNetwork& net = *network;
  const Factory make = [&net, placement] {
    Protocols protocols;
    DynamicVotingOptions weighted;
    auto weights = VoteWeights::MakePadded({3, 1, 1, 2, 1, 1, 1, 2},
                                           net.topology->num_sites());
    EXPECT_TRUE(weights.ok());
    weighted.weights = weights.MoveValue();
    DynamicVotingOptions witness;
    witness.witnesses = SiteSet{1, 5};
    DynamicVotingOptions weighted_topological = weighted;
    weighted_topological.topological = true;
    weighted_topological.optimistic = true;
    for (const DynamicVotingOptions& o :
         {weighted, witness, weighted_topological}) {
      auto p = DynamicVoting::Make(net.topology, placement, o);
      EXPECT_TRUE(p.ok()) << p.status();
      protocols.push_back(p.MoveValue());
    }
    // AC and JM-DV have no repeatable store: the drain steps them.
    for (const char* name : {"AC", "JM-DV", "MCV"}) {
      auto p = MakeProtocolByName(name, net.topology, placement);
      EXPECT_TRUE(p.ok()) << p.status();
      protocols.push_back(p.MoveValue());
    }
    return protocols;
  };
  for (std::uint64_t seed : {3u, 11u, 20260704u, 424242u}) {
    for (double write_fraction : {0.0, 0.5, 1.0}) {
      for (bool quorum_cache : {true, false}) {
        ExpectDrainedEqualsStepped(
            net, DrainOptions(seed, write_fraction, quorum_cache), make,
            testing_util::Cat({"seed=", std::to_string(seed), " writes=",
                               std::to_string(write_fraction), " cache=",
                               std::to_string(quorum_cache)}));
      }
    }
  }
}

// The drain replays at all: on a network that never changes, every
// arrival after the first few is a replay, and the synced protocol is
// exactly its stepped twin.
TEST(ServingDrainFamiliesTest, ReplaysBetweenNetworkEvents) {
  auto network = MakePaperNetwork();
  ASSERT_TRUE(network.ok());
  const SiteSet placement{0, 1, 3};
  NetworkState net(network->topology);
  net.SetSiteUp(3, false);  // two of three copies: granted, one stale
  for (const std::string& name : PaperProtocolNames()) {
    SCOPED_TRACE(name);
    auto drained = MakeProtocolByName(name, network->topology, placement);
    auto stepped = MakeProtocolByName(name, network->topology, placement);
    ASSERT_TRUE(drained.ok() && stepped.ok());
    ServingOptions serving;
    serving.enabled = true;
    ServingStage stage(name, serving, 8);
    ArrivalDrain drain(drained->get(), /*enabled=*/true);
    int replays = 0;
    for (int i = 0; i < 40; ++i) {
      const AccessType type =
          i % 3 == 0 ? AccessType::kWrite : AccessType::kRead;
      const ArrivalInput input = type == AccessType::kWrite
                                     ? ArrivalInput::kWrite
                                     : ArrivalInput::kRead;
      ASSERT_TRUE((*stepped)->UserAccess(net, type).ok());
      if (drain.TryReplay(input) != nullptr) {
        ++replays;
        continue;
      }
      drain.RunReal(input, stage, [&] {
        ArrivalStep step;
        step.granted = (*drained)->UserAccess(net, type).ok();
        return step;
      });
    }
    drain.EndInterval(stage);
    EXPECT_GE(replays, 34);
    EXPECT_EQ((*drained)->counter()->ToString(),
              (*stepped)->counter()->ToString());
    std::string a, b;
    ASSERT_TRUE((*drained)->AppendStateSignature(&a));
    ASSERT_TRUE((*stepped)->AppendStateSignature(&b));
    EXPECT_EQ(a, b);
    for (SiteId s : placement) {
      const ReplicaStore* da = (*drained)->repeatable_store();
      const ReplicaStore* sa = (*stepped)->repeatable_store();
      EXPECT_EQ(da->state(s), sa->state(s)) << "site " << s;
    }
  }
}

}  // namespace
}  // namespace dynvote
