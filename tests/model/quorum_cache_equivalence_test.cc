// End-to-end regression for the quorum-decision cache: the memoization is
// a pure wall-clock optimization, so a full experiment run with caching
// enabled must be bit-identical to one with --no-quorum-cache — every
// PolicyResult field and the serialized replicated-run JSON. The memo
// lives in the solo engine's protocol objects, and an untraced memoized
// run of the paper policies would be routed to the batched engine, so
// both sides here are pinned to the solo engine.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "model/experiment.h"
#include "model/export.h"
#include "model/replicated_experiment.h"
#include "model/site_profile.h"

namespace dynvote {
namespace {

ExperimentOptions ShortRun(bool quorum_cache) {
  ExperimentOptions options;
  options.warmup = Days(30);
  options.num_batches = 5;
  options.batch_length = Years(1.0);
  options.seed = 0xD15C;
  options.quorum_cache = quorum_cache;
  return options;
}

void ExpectIdenticalResults(const PolicyResult& cached,
                            const PolicyResult& plain) {
  EXPECT_EQ(cached.name, plain.name);
  // Bit-identical, not approximately equal: the cache must not change the
  // arithmetic at all.
  EXPECT_EQ(cached.unavailability, plain.unavailability);
  EXPECT_EQ(cached.mean_unavailable_duration,
            plain.mean_unavailable_duration);
  EXPECT_EQ(cached.num_unavailable_periods, plain.num_unavailable_periods);
  EXPECT_EQ(cached.accesses_attempted, plain.accesses_attempted);
  EXPECT_EQ(cached.accesses_granted, plain.accesses_granted);
  EXPECT_EQ(cached.messages.Total(), plain.messages.Total());
  EXPECT_EQ(cached.measured_time, plain.measured_time);
  EXPECT_EQ(cached.dual_majority_instants, plain.dual_majority_instants);
  EXPECT_EQ(cached.time_to_first_outage, plain.time_to_first_outage);
  EXPECT_EQ(cached.stats.mean, plain.stats.mean);
  EXPECT_EQ(cached.stats.ci95_halfwidth, plain.stats.ci95_halfwidth);
}

/// Configuration `label` of the paper grid on the solo engine, so the
/// memoized side really runs the quorum-decision cache.
Result<std::vector<PolicyResult>> RunSoloPaperConfiguration(
    char label, const ExperimentOptions& options) {
  auto network = MakePaperNetwork();
  if (!network.ok()) return network.status();
  SiteSet placement;
  for (const PaperConfiguration& c : PaperConfigurations()) {
    if (c.label == label) placement = c.placement;
  }
  auto protocols =
      MakeProtocolSet(PaperProtocolNames(), network->topology, placement);
  if (!protocols.ok()) return protocols.status();
  ExperimentSpec spec;
  spec.topology = network->topology;
  spec.profiles = network->profiles;
  spec.options = options;
  return RunSoloAvailabilityExperiment(spec, protocols.MoveValue());
}

TEST(QuorumCacheEquivalenceTest, PaperExperimentBitIdentical) {
  auto cached = RunSoloPaperConfiguration('D', ShortRun(true));
  auto plain = RunSoloPaperConfiguration('D', ShortRun(false));
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(cached->size(), plain->size());
  for (std::size_t i = 0; i < cached->size(); ++i) {
    ExpectIdenticalResults((*cached)[i], (*plain)[i]);
  }
}

TEST(QuorumCacheEquivalenceTest, ReplicatedJsonBitIdentical) {
  // Collecting metrics gives every replication an obs context, which
  // keeps both sides on the solo engine; the JSON leaves metrics out.
  ReplicationOptions replication;
  replication.replications = 2;
  replication.jobs = 1;
  replication.collect_metrics = true;
  auto cached = RunReplicatedPaperExperiment('B', PaperProtocolNames(),
                                             ShortRun(true), replication);
  auto plain = RunReplicatedPaperExperiment('B', PaperProtocolNames(),
                                            ShortRun(false), replication);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(ReplicatedResultsToJson("B", *cached),
            ReplicatedResultsToJson("B", *plain));
}

}  // namespace
}  // namespace dynvote
