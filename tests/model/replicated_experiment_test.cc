#include "model/replicated_experiment.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.h"
#include "model/export.h"
#include "model/site_profile.h"
#include "obs/context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

ReplicationOptions Reps(int replications, int jobs) {
  ReplicationOptions r;
  r.replications = replications;
  r.jobs = jobs;
  return r;
}

TEST(ReplicationSeedTest, ReplicationZeroIsTheMasterSeed) {
  EXPECT_EQ(ReplicationSeed(12345, 0), 12345u);
  EXPECT_EQ(ReplicationSeed(0, 0), 0u);
}

TEST(ReplicationSeedTest, FollowsTheSplitMixStream) {
  SplitMix64 mix(99);
  EXPECT_EQ(ReplicationSeed(99, 1), mix.Next());
  EXPECT_EQ(ReplicationSeed(99, 2), mix.Next());
  EXPECT_EQ(ReplicationSeed(99, 3), mix.Next());
}

TEST(ReplicationSeedTest, SeedsAreDistinct) {
  for (int r = 1; r < 16; ++r) {
    EXPECT_NE(ReplicationSeed(12345, r), ReplicationSeed(12345, r - 1));
  }
}

TEST(ReplicatedExperimentTest, ValidatesOptions) {
  EXPECT_TRUE(RunReplicatedPaperExperiment('A', {"MCV"}, ShortOptions(),
                                           Reps(0, 1))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(RunReplicatedPaperExperiment('A', {"MCV"}, ShortOptions(),
                                           Reps(1, -1))
                  .status()
                  .IsInvalidArgument());
  // Refused before any pool is built: past the cap, std::thread throws.
  EXPECT_TRUE(RunReplicatedPaperExperiment('A', {"MCV"}, ShortOptions(),
                                           Reps(1, kMaxWorkerThreads + 1))
                  .status()
                  .IsInvalidArgument());
}

TEST(ReplicatedExperimentTest, SingleReplicationMatchesSequentialRun) {
  // --reps=1 must reproduce the sequential RunAvailabilityExperiment
  // exactly: same seed, same sample path, same counters.
  auto network = MakePaperNetwork();
  ASSERT_TRUE(network.ok()) << network.status();
  ExperimentSpec spec;
  spec.topology = network->topology;
  spec.profiles = network->profiles;
  spec.options = ShortOptions();
  auto protocols = MakeProtocolSet(PaperProtocolNames(), network->topology,
                                   PaperConfigurationFor('B')->placement);
  ASSERT_TRUE(protocols.ok()) << protocols.status();
  auto sequential = RunAvailabilityExperiment(spec, protocols.MoveValue());
  ASSERT_TRUE(sequential.ok()) << sequential.status();

  auto replicated = RunReplicatedPaperExperiment(
      'B', PaperProtocolNames(), ShortOptions(), Reps(1, 1));
  ASSERT_TRUE(replicated.ok()) << replicated.status();
  ASSERT_EQ(replicated->per_replication.size(), 1u);
  ASSERT_EQ(replicated->seeds.size(), 1u);
  EXPECT_EQ(replicated->seeds[0], ShortOptions().seed);

  const std::vector<PolicyResult>& rep0 = replicated->per_replication[0];
  ASSERT_EQ(rep0.size(), sequential->size());
  for (std::size_t p = 0; p < rep0.size(); ++p) {
    EXPECT_EQ(rep0[p].name, (*sequential)[p].name);
    EXPECT_EQ(rep0[p].unavailability, (*sequential)[p].unavailability);
    EXPECT_EQ(rep0[p].accesses_attempted,
              (*sequential)[p].accesses_attempted);
    EXPECT_EQ(rep0[p].accesses_granted, (*sequential)[p].accesses_granted);
    EXPECT_EQ(rep0[p].messages.Total(), (*sequential)[p].messages.Total());
    EXPECT_EQ(rep0[p].time_to_first_outage,
              (*sequential)[p].time_to_first_outage);
  }

  // MeanPolicyResults with R=1 is exactly replication 0.
  std::vector<PolicyResult> mean = MeanPolicyResults(*replicated);
  ASSERT_EQ(mean.size(), rep0.size());
  for (std::size_t p = 0; p < mean.size(); ++p) {
    EXPECT_EQ(mean[p].unavailability, rep0[p].unavailability);
    EXPECT_EQ(mean[p].stats.ci95_halfwidth, rep0[p].stats.ci95_halfwidth);
  }
}

TEST(ReplicatedExperimentTest, JobCountNeverChangesResults) {
  // The determinism contract: serialized output is byte-identical for
  // any --jobs value.
  auto serial = RunReplicatedPaperExperiment('B', {"MCV", "LDV", "ODV"},
                                             ShortOptions(), Reps(4, 1));
  ASSERT_TRUE(serial.ok()) << serial.status();
  auto parallel = RunReplicatedPaperExperiment('B', {"MCV", "LDV", "ODV"},
                                               ShortOptions(), Reps(4, 8));
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(ReplicatedResultsToJson("B", *serial),
            ReplicatedResultsToJson("B", *parallel));
}

TEST(ReplicatedExperimentTest, AggregateMatchesPerReplicationRows) {
  auto results = RunReplicatedPaperExperiment('A', {"MCV", "LDV"},
                                              ShortOptions(), Reps(3, 2));
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->per_replication.size(), 3u);
  ASSERT_EQ(results->aggregate.size(), 2u);

  for (std::size_t p = 0; p < results->aggregate.size(); ++p) {
    const AggregatePolicyResult& agg = results->aggregate[p];
    EXPECT_EQ(agg.replications, 3);
    double sum = 0.0;
    std::uint64_t attempted = 0;
    for (const auto& rows : results->per_replication) {
      EXPECT_EQ(rows[p].name, agg.name);
      sum += rows[p].unavailability;
      attempted += rows[p].accesses_attempted;
    }
    EXPECT_NEAR(agg.unavailability.mean, sum / 3.0, 1e-15);
    EXPECT_EQ(agg.accesses_attempted, attempted);
    EXPECT_EQ(agg.unavailability.num_samples +
                  agg.unavailability.num_censored,
              3);
    // Every replication either saw an outage or was censored.
    EXPECT_EQ(agg.time_to_first_outage.num_samples +
                  agg.time_to_first_outage.num_censored,
              3);
  }
}

TEST(ReplicatedExperimentTest, ReplicationsAreIndependentSamplePaths) {
  // Different seeds must give different sample paths; with three 10-year
  // replications of a partition-prone configuration the access counts
  // essentially cannot collide all at once.
  auto results = RunReplicatedPaperExperiment('B', {"LDV"}, ShortOptions(),
                                              Reps(3, 1));
  ASSERT_TRUE(results.ok()) << results.status();
  const auto& reps = results->per_replication;
  EXPECT_FALSE(reps[0][0].accesses_attempted ==
                   reps[1][0].accesses_attempted &&
               reps[1][0].accesses_attempted ==
                   reps[2][0].accesses_attempted)
      << "three replications produced identical access streams";
}

TEST(ReplicatedExperimentTest, FactoryErrorsPropagate) {
  auto results = RunReplicatedPaperExperiment('A', {"NOPE"}, ShortOptions(),
                                              Reps(2, 2));
  EXPECT_TRUE(results.status().IsInvalidArgument());
}

TEST(ReplicatedExperimentTest, NullFactoryIsRejected) {
  ExperimentSpec spec;
  EXPECT_TRUE(RunReplicatedExperiment(spec, ProtocolSetFactory(),
                                      Reps(1, 1))
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------
// --objects grouping (the batched engine behind the replicated harness)
// ---------------------------------------------------------------------

TEST(ReplicatedObjectsTest, ObjectsGroupingIsByteInvisible) {
  // The integration contract: --objects only changes wall-clock time.
  // The serialized JSON (the CLI's --json output) must be byte-identical
  // across objects ∈ {1, 3, N} and jobs ∈ {1, 4}, including a group size
  // that does not divide the replication count.
  ExperimentOptions options;
  options.warmup = Days(90);
  options.num_batches = 3;
  options.batch_length = Years(1);
  options.seed = 20260808;

  auto run = [&](int objects, int jobs, bool collect_metrics = false) {
    ReplicationOptions replication;
    replication.replications = 7;
    replication.jobs = jobs;
    replication.objects = objects;
    replication.collect_metrics = collect_metrics;
    auto results = RunReplicatedPaperExperiment('B', PaperProtocolNames(),
                                                options, replication);
    EXPECT_TRUE(results.ok()) << results.status();
    return ReplicatedResultsToJson("B", *results);
  };

  // objects = 1 still routes each replication to the batched engine as a
  // batch of one; collecting metrics keeps every replication on the solo
  // engine (the JSON leaves metrics out), so this pins the batched bytes
  // to the reference engine's.
  const std::string baseline = run(1, 1);
  EXPECT_EQ(run(1, 1, /*collect_metrics=*/true), baseline);
  EXPECT_EQ(run(3, 1), baseline);
  EXPECT_EQ(run(3, 4), baseline);
  EXPECT_EQ(run(7, 2), baseline);
  EXPECT_EQ(run(16, 4), baseline);
}

TEST(ReplicatedObjectsTest, LargestObjectsValueIsOneGroup) {
  // --objects accepts any int: the group arithmetic must not overflow
  // (replications + objects once wrapped negative and ran no group).
  ExperimentOptions options;
  options.warmup = Days(30);
  options.num_batches = 2;
  options.batch_length = Years(1);
  auto run = [&](int objects) {
    ReplicationOptions replication;
    replication.replications = 3;
    replication.jobs = 2;
    replication.objects = objects;
    auto results = RunReplicatedPaperExperiment('B', PaperProtocolNames(),
                                                options, replication);
    EXPECT_TRUE(results.ok()) << results.status();
    return results.ok() ? ReplicatedResultsToJson("B", *results) : "";
  };
  const std::string grouped = run(std::numeric_limits<int>::max());
  EXPECT_NE(grouped.find("\"policy\": \"OTDV\""), std::string::npos);
  EXPECT_EQ(grouped, run(1));
}

TEST(ReplicatedObjectsTest, UnsupportedPolicyFallsBackToProtocolObjects) {
  // AC has no batched fast path; the gate must silently route through
  // the per-replication engine and still produce identical bytes.
  ExperimentOptions options;
  options.warmup = Days(30);
  options.num_batches = 2;
  options.batch_length = Years(1);
  options.seed = 777;

  auto run = [&](int objects) {
    ReplicationOptions replication;
    replication.replications = 3;
    replication.jobs = 2;
    replication.objects = objects;
    auto results = RunReplicatedPaperExperiment('B', {"MCV", "AC"}, options,
                                                replication);
    EXPECT_TRUE(results.ok()) << results.status();
    return ReplicatedResultsToJson("B", *results);
  };
  EXPECT_EQ(run(4), run(1));
}

TEST(ReplicatedObjectsTest, CallerObsContextWithoutCollectionStillGroups) {
  // A caller-supplied spec.obs is dropped for every replication that
  // collects nothing, so grouping must neither fail on it nor change the
  // bytes.
  auto network = MakePaperNetwork();
  ASSERT_TRUE(network.ok()) << network.status();
  std::shared_ptr<const Topology> topology = network->topology;
  ProtocolSetFactory factory = [topology] {
    return MakeProtocolSet(PaperProtocolNames(), topology,
                           SiteSet{0, 1, 3, 5, 7});
  };
  ExperimentSpec spec;
  spec.topology = topology;
  spec.profiles = network->profiles;
  spec.options.warmup = Days(90);
  spec.options.num_batches = 3;
  spec.options.batch_length = Years(1);
  spec.options.seed = 31337;
  ObsContext ctx;
  spec.obs = &ctx;

  auto run = [&](int objects) {
    ReplicationOptions replication;
    replication.replications = 5;
    replication.jobs = 1;
    replication.objects = objects;
    auto results = RunReplicatedExperiment(spec, factory, replication);
    EXPECT_TRUE(results.ok()) << results.status();
    return results.ok() ? ReplicatedResultsToJson("B", *results) : "";
  };
  const std::string grouped = run(3);
  EXPECT_FALSE(grouped.empty());
  EXPECT_EQ(grouped, run(1));
}

TEST(ReplicatedObjectsTest, EngineIsDecidedOnceFromOneFactorySet) {
  // The factory is asked once for the engine decision. With a batched
  // plan nothing else builds a protocol set, whatever the grouping; on
  // the solo engine every replication builds its own set, after the one
  // probe when nothing is collected and without it otherwise.
  auto network = MakePaperNetwork();
  ASSERT_TRUE(network.ok()) << network.status();
  ExperimentSpec spec;
  spec.topology = network->topology;
  spec.profiles = network->profiles;
  spec.options.warmup = Days(30);
  spec.options.num_batches = 2;
  spec.options.batch_length = Years(0.5);
  const SiteSet placement = PaperConfigurationFor('B')->placement;
  constexpr int kReps = 5;

  auto calls = [&](const std::vector<std::string>& names, int objects,
                   int jobs, bool collect_metrics) {
    std::atomic<int> count{0};
    ProtocolSetFactory factory = [&] {
      ++count;
      return MakeProtocolSet(names, network->topology, placement);
    };
    ReplicationOptions replication;
    replication.replications = kReps;
    replication.jobs = jobs;
    replication.objects = objects;
    replication.collect_metrics = collect_metrics;
    auto results = RunReplicatedExperiment(spec, factory, replication);
    EXPECT_TRUE(results.ok()) << results.status();
    return count.load();
  };

  for (int objects : {1, 2, 8}) {
    for (int jobs : {1, 3}) {
      EXPECT_EQ(calls(PaperProtocolNames(), objects, jobs, false), 1)
          << "objects " << objects << ", jobs " << jobs;
      EXPECT_EQ(calls({"AC"}, objects, jobs, false), kReps + 1)
          << "objects " << objects << ", jobs " << jobs;
      EXPECT_EQ(calls(PaperProtocolNames(), objects, jobs, true), kReps)
          << "objects " << objects << ", jobs " << jobs;
    }
  }
}

TEST(ReplicatedObjectsTest, ValidatesObjects) {
  ExperimentOptions options;
  ReplicationOptions replication;
  replication.objects = 0;
  EXPECT_TRUE(RunReplicatedPaperExperiment('A', {"MCV"}, options, replication)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace dynvote
