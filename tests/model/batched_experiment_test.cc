#include "model/batched_experiment.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_voting.h"
#include "core/mcv.h"
#include "core/registry.h"
#include "model/export.h"
#include "model/replicated_experiment.h"
#include "model/site_profile.h"
#include "net/topology.h"
#include "obs/context.h"

namespace dynvote {
namespace {

// The paper's five-copy placement (configuration B): csvax, beowulf,
// wizard, gremlin, mangle — spans all three segments, so partitions and
// divergent replica states occur routinely.
constexpr SiteSet kFiveCopyPlacement{0, 1, 3, 5, 7};

ExperimentSpec PaperSpec(bool quorum_cache = true) {
  auto network = MakePaperNetwork();
  EXPECT_TRUE(network.ok()) << network.status();
  ExperimentSpec spec;
  spec.topology = network->topology;
  spec.profiles = network->profiles;
  spec.options.warmup = Days(90);
  spec.options.num_batches = 3;
  spec.options.batch_length = Years(1);
  spec.options.quorum_cache = quorum_cache;
  return spec;
}

using ProtocolSet = std::vector<std::unique_ptr<ConsistencyProtocol>>;

ProtocolSet MakeProtocols(const ExperimentSpec& spec,
                          const std::vector<std::string>& names,
                          SiteSet placement = kFiveCopyPlacement) {
  ProtocolSet protocols;
  for (const std::string& name : names) {
    auto p = MakeProtocolByName(name, spec.topology, placement);
    EXPECT_TRUE(p.ok()) << p.status();
    protocols.push_back(p.MoveValue());
  }
  return protocols;
}

/// The bit pattern of a double: the comparisons below are bitwise, so
/// -0.0 vs 0.0 or differing NaNs count as differences.
std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Asserts object `k` of a batched run reproduces a solo run bit for bit
/// — every statistic, counter and message tally, not just the headline
/// unavailability.
void ExpectBitIdentical(const PolicyResult& batched, const PolicyResult& solo) {
  EXPECT_EQ(batched.name, solo.name);
  EXPECT_EQ(Bits(batched.unavailability), Bits(solo.unavailability));
  EXPECT_EQ(Bits(batched.mean_unavailable_duration),
            Bits(solo.mean_unavailable_duration));
  EXPECT_EQ(Bits(batched.time_to_first_outage),
            Bits(solo.time_to_first_outage));
  EXPECT_EQ(batched.num_unavailable_periods, solo.num_unavailable_periods);
  EXPECT_EQ(batched.accesses_attempted, solo.accesses_attempted);
  EXPECT_EQ(batched.accesses_granted, solo.accesses_granted);
  EXPECT_EQ(batched.dual_majority_instants, solo.dual_majority_instants);
  EXPECT_EQ(Bits(batched.measured_time), Bits(solo.measured_time));
  EXPECT_EQ(batched.stats.num_batches, solo.stats.num_batches);
  EXPECT_EQ(Bits(batched.stats.mean), Bits(solo.stats.mean));
  EXPECT_EQ(Bits(batched.stats.stddev), Bits(solo.stats.stddev));
  EXPECT_EQ(Bits(batched.stats.ci95_halfwidth),
            Bits(solo.stats.ci95_halfwidth));
  for (int k = 0; k < kNumMessageKinds; ++k) {
    MessageKind kind = static_cast<MessageKind>(k);
    EXPECT_EQ(batched.messages.count(kind), solo.messages.count(kind))
        << "message kind " << k;
  }
}

TEST(BatchedEngineSupportsTest, PaperSetIsSupported) {
  EXPECT_TRUE(BatchedEngineSupports(PaperProtocolNames()));
  EXPECT_TRUE(BatchedEngineSupports({"MCV"}));
  EXPECT_TRUE(BatchedEngineSupports({"DV", "ODV"}));
}

TEST(BatchedEngineSupportsTest, RejectsProtocolsWithoutFastPath) {
  EXPECT_FALSE(BatchedEngineSupports({"AC"}));
  EXPECT_FALSE(BatchedEngineSupports({"MCV", "AC"}));
  EXPECT_FALSE(BatchedEngineSupports({"NOPE"}));
}

TEST(BatchedExperimentTest, EveryObjectMatchesItsSoloRunBitForBit) {
  // The engine's hard constraint: object k in a batch of N reproduces a
  // RunSoloAvailabilityExperiment with seed seeds[k] exactly. Five
  // objects over three years of the partition-prone placement exercise
  // uniform mode, divergence, reintegration and recovery.
  ExperimentSpec spec = PaperSpec();
  const std::vector<std::string>& names = PaperProtocolNames();
  BatchedProtocolSpec batched_spec{names, kFiveCopyPlacement};
  std::vector<std::uint64_t> seeds{11, 5150, 77777, 4242424242ull, 90210};

  auto batched = RunBatchedAvailabilityExperiment(spec, batched_spec, seeds);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_EQ(batched->size(), seeds.size());

  for (std::size_t k = 0; k < seeds.size(); ++k) {
    ExperimentSpec solo_spec = spec;
    solo_spec.options.seed = seeds[k];
    auto solo = RunSoloAvailabilityExperiment(solo_spec,
                                              MakeProtocols(spec, names));
    ASSERT_TRUE(solo.ok()) << solo.status();
    ASSERT_EQ((*batched)[k].size(), solo->size());
    for (std::size_t p = 0; p < solo->size(); ++p) {
      SCOPED_TRACE("seed " + std::to_string(seeds[k]) + " policy " +
                   (*solo)[p].name);
      ExpectBitIdentical((*batched)[k][p], (*solo)[p]);
    }
  }
}

TEST(BatchedExperimentTest, QuorumCacheOffStillMatchesSolo) {
  // --no-quorum-cache disables grant memoization in both engines; the
  // batched engine must keep bit-identity in that mode too.
  ExperimentSpec spec = PaperSpec(/*quorum_cache=*/false);
  const std::vector<std::string>& names = PaperProtocolNames();
  BatchedProtocolSpec batched_spec{names, kFiveCopyPlacement};
  std::vector<std::uint64_t> seeds{303, 999983};

  auto batched = RunBatchedAvailabilityExperiment(spec, batched_spec, seeds);
  ASSERT_TRUE(batched.ok()) << batched.status();
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    ExperimentSpec solo_spec = spec;
    solo_spec.options.seed = seeds[k];
    auto solo = RunSoloAvailabilityExperiment(solo_spec,
                                              MakeProtocols(spec, names));
    ASSERT_TRUE(solo.ok()) << solo.status();
    for (std::size_t p = 0; p < solo->size(); ++p) {
      SCOPED_TRACE("seed " + std::to_string(seeds[k]) + " policy " +
                   (*solo)[p].name);
      ExpectBitIdentical((*batched)[k][p], (*solo)[p]);
    }
  }
}

TEST(BatchedExperimentTest, BatchSizeNeverChangesResults) {
  // Splitting the same seeds across different batch sizes (or running
  // them solo through a batch of one) is invisible in the output.
  ExperimentSpec spec = PaperSpec();
  BatchedProtocolSpec batched_spec{{"MCV", "DV", "TDV"}, kFiveCopyPlacement};
  std::vector<std::uint64_t> seeds{1, 2, 3, 4, 5, 6};

  auto all = RunBatchedAvailabilityExperiment(spec, batched_spec, seeds);
  ASSERT_TRUE(all.ok()) << all.status();
  auto first_half = RunBatchedAvailabilityExperiment(
      spec, batched_spec,
      std::vector<std::uint64_t>(seeds.begin(), seeds.begin() + 3));
  ASSERT_TRUE(first_half.ok()) << first_half.status();
  auto one = RunBatchedAvailabilityExperiment(spec, batched_spec, {seeds[4]});
  ASSERT_TRUE(one.ok()) << one.status();

  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t p = 0; p < (*all)[k].size(); ++p) {
      ExpectBitIdentical((*first_half)[k][p], (*all)[k][p]);
    }
  }
  for (std::size_t p = 0; p < (*all)[4].size(); ++p) {
    ExpectBitIdentical((*one)[0][p], (*all)[4][p]);
  }

  // ... and every grouping equals the solo reference engine, so the
  // comparisons above are not batched-against-batched only.
  ExperimentSpec solo_spec = spec;
  solo_spec.options.seed = seeds[4];
  auto solo = RunSoloAvailabilityExperiment(
      solo_spec, MakeProtocols(spec, batched_spec.policies));
  ASSERT_TRUE(solo.ok()) << solo.status();
  for (std::size_t p = 0; p < solo->size(); ++p) {
    ExpectBitIdentical((*all)[4][p], (*solo)[p]);
  }
}

TEST(BatchedEngineTest, ObjectsRunIndependentlyInAnyOrder) {
  // The engine runs a batch's objects back to back. Nothing one object
  // leaves behind — sample memo entries, steady-state tallies, the
  // all-available flag, divergent replica state — may reach the next:
  // every row must equal the batch-of-one run of its seed, whichever
  // object ran before it. The partition-prone placement with sites that
  // fail four times as often ends many objects with their dynamic slots
  // out of uniform mode and small groups granted in the memos; with no
  // warm-up, whatever leaked into an object's first days is measured.
  ExperimentSpec spec = PaperSpec();
  spec.options.warmup = 0.0;
  for (SiteProfile& profile : spec.profiles) profile.mttf_days /= 4.0;
  BatchedProtocolSpec batched_spec{PaperProtocolNames(), kFiveCopyPlacement};
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < 24; ++i) seeds.push_back(ReplicationSeed(7, i));
  const std::vector<std::uint64_t> reversed(seeds.rbegin(), seeds.rend());

  auto forward = RunBatchedAvailabilityExperiment(spec, batched_spec, seeds);
  ASSERT_TRUE(forward.ok()) << forward.status();
  auto backward = RunBatchedAvailabilityExperiment(spec, batched_spec, reversed);
  ASSERT_TRUE(backward.ok()) << backward.status();
  ASSERT_EQ(forward->size(), seeds.size());
  ASSERT_EQ(backward->size(), seeds.size());

  for (std::size_t k = 0; k < seeds.size(); ++k) {
    auto alone =
        RunBatchedAvailabilityExperiment(spec, batched_spec, {seeds[k]});
    ASSERT_TRUE(alone.ok()) << alone.status();
    const std::vector<PolicyResult>& reference = alone->front();
    const std::vector<PolicyResult>& in_order = (*forward)[k];
    const std::vector<PolicyResult>& in_reverse =
        (*backward)[seeds.size() - 1 - k];
    ASSERT_EQ(in_order.size(), reference.size());
    ASSERT_EQ(in_reverse.size(), reference.size());
    for (std::size_t p = 0; p < reference.size(); ++p) {
      SCOPED_TRACE("seed " + std::to_string(seeds[k]) + " policy " +
                   reference[p].name);
      ExpectBitIdentical(in_order[p], reference[p]);
      ExpectBitIdentical(in_reverse[p], reference[p]);
    }
  }
}

TEST(BatchedExperimentTest, MaintenanceCalendarMatchesSoloRounding) {
  // Regression: the batched engine once scheduled the next maintenance
  // window at (now + interval) - duration while the solo model schedules
  // now + (interval - duration). The two round differently; over enough
  // windows the calendars drift an ulp apart and an outage boundary
  // moves. This replication of `repeat --sites=1,2,4 --years=5 --seed=2`
  // exposed it in the last bits of its unavailability.
  auto network = MakePaperNetwork();
  ASSERT_TRUE(network.ok()) << network.status();
  ExperimentSpec spec;
  spec.topology = network->topology;
  spec.profiles = network->profiles;
  spec.options.warmup = Days(360);
  spec.options.num_batches = 20;
  spec.options.batch_length = Years(5.0 / 20.0);
  spec.options.seed = ReplicationSeed(2, 54);
  const SiteSet placement{0, 1, 3};  // configuration A
  const std::vector<std::string>& names = PaperProtocolNames();

  std::vector<std::unique_ptr<ConsistencyProtocol>> protocols;
  for (const std::string& name : names) {
    auto p = MakeProtocolByName(name, spec.topology, placement);
    ASSERT_TRUE(p.ok()) << p.status();
    protocols.push_back(p.MoveValue());
  }
  auto solo = RunSoloAvailabilityExperiment(spec, std::move(protocols));
  ASSERT_TRUE(solo.ok()) << solo.status();
  auto batched = RunBatchedAvailabilityExperiment(
      spec, BatchedProtocolSpec{names, placement}, {spec.options.seed});
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_EQ(batched->front().size(), solo->size());
  for (std::size_t p = 0; p < solo->size(); ++p) {
    SCOPED_TRACE((*solo)[p].name);
    ExpectBitIdentical(batched->front()[p], (*solo)[p]);
  }
}

TEST(BatchedExperimentTest, RejectsUnknownPolicyAndEmptyBatch) {
  ExperimentSpec spec = PaperSpec();
  BatchedProtocolSpec bad{{"NOPE"}, kFiveCopyPlacement};
  EXPECT_FALSE(RunBatchedAvailabilityExperiment(spec, bad, {1}).ok());

  BatchedProtocolSpec ok_spec{{"MCV"}, kFiveCopyPlacement};
  EXPECT_FALSE(RunBatchedAvailabilityExperiment(spec, ok_spec, {}).ok());
}

TEST(BatchedExperimentTest, BothEnginesRejectInvalidSpecsWithTheSameStatus) {
  // One validation serves both engines, so every invalid spec fails the
  // same way whichever engine it reaches.
  struct Case {
    const char* what;
    void (*spoil)(ExperimentSpec*);
    Status expected;
  };
  const Case cases[] = {
      {"zero MTTF", [](ExperimentSpec* s) { s->profiles[2].mttf_days = 0.0; },
       Status::InvalidArgument("site MTTF must be > 0")},
      {"negative MTTF",
       [](ExperimentSpec* s) { s->profiles[0].mttf_days = -3.0; },
       Status::InvalidArgument("site MTTF must be > 0")},
      {"hardware fraction below 0",
       [](ExperimentSpec* s) { s->profiles[1].hardware_fraction = -0.1; },
       Status::InvalidArgument("hardware fraction outside [0, 1]")},
      {"hardware fraction above 1",
       [](ExperimentSpec* s) { s->profiles[7].hardware_fraction = 1.5; },
       Status::InvalidArgument("hardware fraction outside [0, 1]")},
      {"zero access rate",
       [](ExperimentSpec* s) { s->options.access.rate_per_day = 0.0; },
       Status::InvalidArgument("access rate must be > 0")},
      {"negative access rate",
       [](ExperimentSpec* s) { s->options.access.rate_per_day = -1.0; },
       Status::InvalidArgument("access rate must be > 0")},
      {"write fraction below 0",
       [](ExperimentSpec* s) { s->options.access.write_fraction = -0.5; },
       Status::InvalidArgument("write fraction outside [0, 1]")},
      {"write fraction above 1",
       [](ExperimentSpec* s) { s->options.access.write_fraction = 1.01; },
       Status::InvalidArgument("write fraction outside [0, 1]")},
      {"one profile short", [](ExperimentSpec* s) { s->profiles.pop_back(); },
       Status::InvalidArgument("need one SiteProfile per site")},
      {"one profile extra",
       [](ExperimentSpec* s) { s->profiles.push_back(s->profiles.front()); },
       Status::InvalidArgument("need one SiteProfile per site")},
  };
  const std::vector<std::string>& names = PaperProtocolNames();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    ExperimentSpec spec = PaperSpec();
    c.spoil(&spec);
    auto solo =
        RunSoloAvailabilityExperiment(spec, MakeProtocols(spec, names));
    auto batched = RunBatchedAvailabilityExperiment(
        spec, BatchedProtocolSpec{names, kFiveCopyPlacement}, {1, 2});
    ASSERT_FALSE(solo.ok());
    ASSERT_FALSE(batched.ok());
    EXPECT_EQ(solo.status(), c.expected);
    EXPECT_EQ(batched.status(), solo.status());
  }
}

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
  ProtocolSetFactory factory = [topology]() -> Result<ProtocolSet> {
    ProtocolSet protocols;
    for (const std::string& name : PaperProtocolNames()) {
      auto p = MakeProtocolByName(name, topology, kFiveCopyPlacement);
      if (!p.ok()) return p.status();
      protocols.push_back(p.MoveValue());
    }
    return protocols;
  };
  ExperimentSpec spec = PaperSpec();
  spec.topology = topology;
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

TEST(ReplicatedObjectsTest, ValidatesObjects) {
  ExperimentOptions options;
  ReplicationOptions replication;
  replication.objects = 0;
  EXPECT_TRUE(RunReplicatedPaperExperiment('A', {"MCV"}, options, replication)
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Engine selection: BatchedPlanFor and RunAvailabilityExperiment
// ---------------------------------------------------------------------

template <typename T>
std::unique_ptr<ConsistencyProtocol> Unwrap(Result<std::unique_ptr<T>> r) {
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r.MoveValue() : nullptr;
}

/// Two stock protocols plus `odd`: the plan must be refused because of
/// `odd` alone.
ProtocolSet StockSetWith(const ExperimentSpec& spec,
                         std::unique_ptr<ConsistencyProtocol> odd) {
  ProtocolSet set = MakeProtocols(spec, {"MCV", "LDV"});
  set.push_back(std::move(odd));
  return set;
}

TEST(BatchedPlanForTest, StockPaperSetYieldsAPlan) {
  ExperimentSpec spec = PaperSpec();
  auto plan = BatchedPlanFor(spec, MakeProtocols(spec, PaperProtocolNames()));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->policies, PaperProtocolNames());
  EXPECT_EQ(plan->placement, kFiveCopyPlacement);

  // Stock options spelled out explicitly are still stock.
  DynamicVotingOptions ldv;
  ldv.name = "LDV";
  EXPECT_TRUE(BatchedPlanFor(
                  spec, StockSetWith(spec, Unwrap(DynamicVoting::Make(
                                               spec.topology,
                                               kFiveCopyPlacement, ldv))))
                  .has_value());
}

TEST(BatchedPlanForTest, PoliciesWithoutAFastPathStayOnSolo) {
  ExperimentSpec spec = PaperSpec();
  for (const char* name : {"AC", "JM-DV"}) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(BatchedPlanFor(
                     spec, StockSetWith(spec, Unwrap(MakeProtocolByName(
                                                  name, spec.topology,
                                                  kFiveCopyPlacement))))
                     .has_value());
  }
}

TEST(BatchedPlanForTest, OptionsTheBatchedPlansDoNotModelStayOnSolo) {
  ExperimentSpec spec = PaperSpec();
  auto weights = VoteWeights::Make({2, 1, 1, 1, 1, 1, 1, 1});
  ASSERT_TRUE(weights.ok()) << weights.status();

  DynamicVotingOptions weighted_dv;
  weighted_dv.weights = *weights;
  DynamicVotingOptions witness_dv;
  witness_dv.witnesses = SiteSet{7};
  DynamicVotingOptions custom_dv;
  custom_dv.name = "MyLDV";
  DynamicVotingOptions untied_odv;  // optimistic, ties fail: no paper name
  untied_odv.optimistic = true;
  untied_odv.tie_break = TieBreak::kNone;
  for (const DynamicVotingOptions& o :
       {weighted_dv, witness_dv, custom_dv, untied_odv}) {
    auto dv = Unwrap(DynamicVoting::Make(spec.topology, kFiveCopyPlacement, o));
    SCOPED_TRACE(dv->name());
    EXPECT_FALSE(BatchedPlanFor(spec, StockSetWith(spec, std::move(dv)))
                     .has_value());
  }

  McvOptions weighted_mcv;
  weighted_mcv.weights = *weights;
  McvOptions untied_mcv;
  untied_mcv.tie_break = TieBreak::kNone;
  McvOptions quorum_mcv;
  quorum_mcv.read_quorum = 3;
  quorum_mcv.write_quorum = 3;
  McvOptions custom_mcv;
  custom_mcv.name = "Majority";
  int index = 0;
  for (const McvOptions& o :
       {weighted_mcv, untied_mcv, quorum_mcv, custom_mcv}) {
    SCOPED_TRACE("MCV option set " + std::to_string(index++));
    auto mcv = Unwrap(MajorityConsensusVoting::Make(kFiveCopyPlacement, o));
    EXPECT_FALSE(BatchedPlanFor(spec, StockSetWith(spec, std::move(mcv)))
                     .has_value());
  }
}

TEST(BatchedPlanForTest, UsedOrInstrumentedProtocolsStayOnSolo) {
  ExperimentSpec spec = PaperSpec();
  const std::vector<std::string>& names = PaperProtocolNames();

  {  // A store past its initial state (and the traffic that moved it).
    ProtocolSet set = MakeProtocols(spec, names);
    NetworkState net(spec.topology);
    net.AllUp();
    ASSERT_TRUE(set[2]->UserAccess(net, AccessType::kWrite).ok());
    EXPECT_FALSE(BatchedPlanFor(spec, set).has_value());
  }
  {  // Message counts carried in from elsewhere.
    ProtocolSet set = MakeProtocols(spec, names);
    set[0]->counter()->Add(MessageKind::kProbe, 1);
    EXPECT_FALSE(BatchedPlanFor(spec, set).has_value());
  }
  {
    ProtocolSet set = MakeProtocols(spec, names);
    set[1]->set_commit_hook([](const CommitInfo&) {});
    EXPECT_FALSE(BatchedPlanFor(spec, set).has_value());
  }
  {
    ProtocolSet set = MakeProtocols(spec, names);
    ObsContext obs;
    set[4]->set_obs(&obs);
    EXPECT_FALSE(BatchedPlanFor(spec, set).has_value());
  }
}

TEST(BatchedPlanForTest, ForeignTopologyOrMixedPlacementsStayOnSolo) {
  ExperimentSpec spec = PaperSpec();
  auto other = MakePaperNetwork();  // equal, but another object
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_FALSE(BatchedPlanFor(spec, StockSetWith(
                                        spec, Unwrap(MakeProtocolByName(
                                                  "TDV", other->topology,
                                                  kFiveCopyPlacement))))
                   .has_value());
  EXPECT_FALSE(BatchedPlanFor(spec, StockSetWith(
                                        spec, Unwrap(MakeProtocolByName(
                                                  "ODV", spec.topology,
                                                  SiteSet{0, 1, 3}))))
                   .has_value());
}

TEST(BatchedPlanForTest, TracedServingOrUnmemoizedRunsStayOnSolo) {
  const std::vector<std::string>& names = PaperProtocolNames();
  ObsContext obs;
  ExperimentSpec traced = PaperSpec();
  traced.obs = &obs;
  EXPECT_FALSE(BatchedPlanFor(traced, MakeProtocols(traced, names)));

  ExperimentSpec serving = PaperSpec();
  serving.options.serving.enabled = true;
  EXPECT_FALSE(BatchedPlanFor(serving, MakeProtocols(serving, names)));

  ExperimentSpec unmemoized = PaperSpec(/*quorum_cache=*/false);
  EXPECT_FALSE(BatchedPlanFor(unmemoized, MakeProtocols(unmemoized, names)));
}

TEST(EngineRoutingTest, RoutedRunsMatchTheSoloEngineOnThePaperGrid) {
  // The tentpole contract of RunAvailabilityExperiment: routing an
  // untraced paper-policy run to the batched engine is invisible. Every
  // configuration A-H, all six policies, several seeds, every field.
  auto network = MakePaperNetwork();
  ASSERT_TRUE(network.ok()) << network.status();
  ExperimentSpec spec;
  spec.topology = network->topology;
  spec.profiles = network->profiles;
  spec.options.warmup = Days(90);
  spec.options.num_batches = 4;
  spec.options.batch_length = Years(1);
  const std::vector<std::string>& names = PaperProtocolNames();

  for (const PaperConfiguration& config : PaperConfigurations()) {
    for (std::uint64_t seed : {1ull, 20260704ull, 987654321ull}) {
      SCOPED_TRACE(std::string("config ") + config.label + " seed " +
                   std::to_string(seed));
      spec.options.seed = seed;
      ASSERT_TRUE(
          BatchedPlanFor(spec, MakeProtocols(spec, names, config.placement))
              .has_value());
      auto routed = RunAvailabilityExperiment(
          spec, MakeProtocols(spec, names, config.placement));
      auto solo = RunSoloAvailabilityExperiment(
          spec, MakeProtocols(spec, names, config.placement));
      ASSERT_TRUE(routed.ok()) << routed.status();
      ASSERT_TRUE(solo.ok()) << solo.status();
      ASSERT_EQ(routed->size(), solo->size());
      for (std::size_t p = 0; p < solo->size(); ++p) {
        SCOPED_TRACE((*solo)[p].name);
        ExpectBitIdentical((*routed)[p], (*solo)[p]);
      }
    }
  }
}

TEST(EngineRoutingTest, FallbackRunsTheProtocolObjects) {
  // A commit hook keeps the run on the solo engine: the hook fires, and
  // the rows still equal an unhooked solo run.
  ExperimentSpec spec = PaperSpec();
  spec.options.seed = 4242;
  const std::vector<std::string>& names = PaperProtocolNames();
  ProtocolSet hooked = MakeProtocols(spec, names);
  int commits = 0;
  hooked[2]->set_commit_hook([&commits](const CommitInfo&) { ++commits; });
  auto routed = RunAvailabilityExperiment(spec, std::move(hooked));
  auto solo = RunSoloAvailabilityExperiment(spec, MakeProtocols(spec, names));
  ASSERT_TRUE(routed.ok()) << routed.status();
  ASSERT_TRUE(solo.ok()) << solo.status();
  EXPECT_GT(commits, 0);
  for (std::size_t p = 0; p < solo->size(); ++p) {
    ExpectBitIdentical((*routed)[p], (*solo)[p]);
  }
}

TEST(EngineRoutingTest, RoutedRunsMatchTheSoloEngineWithRepeaters) {
  // The paper network with its two gateway hosts replaced by dedicated
  // repeaters that fail and get repaired on their own: the batched
  // engine's repeater failure and repair events must reproduce the solo
  // engine's bit for bit, like the site events do on the plain network.
  auto paper = MakePaperNetwork();
  ASSERT_TRUE(paper.ok()) << paper.status();
  auto builder = Topology::Builder();
  SegmentId main_seg = builder.AddSegment("main");
  SegmentId second = builder.AddSegment("second");
  SegmentId third = builder.AddSegment("third");
  for (const char* name : {"csvax", "beowulf", "grendel", "wizard", "amos"}) {
    builder.AddSite(name, main_seg);
  }
  builder.AddSite("gremlin", second);
  builder.AddSite("rip", third);
  builder.AddSite("mangle", third);
  builder.AddRepeater("rep-second", main_seg, second);
  builder.AddRepeater("rep-third", main_seg, third);
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok()) << topology.status();

  ExperimentSpec spec;
  spec.topology = topology.MoveValue();
  spec.profiles = paper->profiles;
  // Short-lived repeaters so a 3-year run sees many repeater outages,
  // one with a mixed repair law and one with a purely exponential one.
  spec.repeater_profiles = {RepeaterProfile{"rep-second", 20.0, 24.0, 48.0},
                            RepeaterProfile{"rep-third", 15.0, 0.0, 96.0}};
  spec.options.warmup = Days(90);
  spec.options.num_batches = 3;
  spec.options.batch_length = Years(1);
  const std::vector<std::string>& names = PaperProtocolNames();

  for (const PaperConfiguration& config : PaperConfigurations()) {
    for (std::uint64_t seed : {2ull, 20260704ull}) {
      SCOPED_TRACE(std::string("config ") + config.label + " seed " +
                   std::to_string(seed));
      spec.options.seed = seed;
      ASSERT_TRUE(
          BatchedPlanFor(spec, MakeProtocols(spec, names, config.placement))
              .has_value());
      auto routed = RunAvailabilityExperiment(
          spec, MakeProtocols(spec, names, config.placement));
      auto solo = RunSoloAvailabilityExperiment(
          spec, MakeProtocols(spec, names, config.placement));
      ASSERT_TRUE(routed.ok()) << routed.status();
      ASSERT_TRUE(solo.ok()) << solo.status();
      ASSERT_EQ(routed->size(), solo->size());
      for (std::size_t p = 0; p < solo->size(); ++p) {
        SCOPED_TRACE((*solo)[p].name);
        ExpectBitIdentical((*routed)[p], (*solo)[p]);
      }
    }
  }
}

}  // namespace
}  // namespace dynvote
