// Property test: the closed-form static-voting availability agrees with
// the discrete-event simulation on randomly generated topologies and
// failure profiles. This pins the entire simulation pipeline (failure
// processes, connectivity, quorum rule, tracker) to an independent
// computation for every memoryless case we can enumerate.

#include <gtest/gtest.h>

#include "core/mcv.h"
#include "model/analytic.h"
#include "model/experiment.h"
#include "util/rng.h"
#include "test_text.h"

namespace dynvote {
namespace {

struct RandomCase {
  std::shared_ptr<const Topology> topology;
  std::vector<SiteProfile> profiles;
  SiteSet placement;
};

RandomCase MakeCase(Rng* rng) {
  RandomCase c;
  auto builder = Topology::Builder();
  int num_segments = 1 + static_cast<int>(rng->NextBounded(3));
  std::vector<SegmentId> segments;
  for (int i = 0; i < num_segments; ++i) {
    segments.push_back(
        builder.AddSegment(testing_util::Cat({"seg", std::to_string(i)})));
  }
  int num_sites = 3 + static_cast<int>(rng->NextBounded(4));
  std::vector<SegmentId> home;
  for (int i = 0; i < num_sites; ++i) {
    // Keep segment 0 populated; spread the rest.
    SegmentId seg = i == 0 ? segments[0]
                           : segments[rng->NextBounded(segments.size())];
    builder.AddSite(testing_util::Cat({"s", std::to_string(i)}), seg);
    home.push_back(seg);

    SiteProfile p;
    p.name = testing_util::Cat({"s", std::to_string(i)});
    p.mttf_days = 5.0 + rng->NextDouble() * 60.0;
    p.hardware_fraction = rng->NextDouble();
    p.restart_minutes = 10.0 + rng->NextDouble() * 30.0;
    p.hw_repair_const_hours = rng->NextDouble() * 24.0;
    p.hw_repair_exp_hours = 1.0 + rng->NextDouble() * 72.0;
    c.profiles.push_back(std::move(p));
  }
  // Bridge every non-main segment to segment 0 through a gateway host
  // homed on it (guaranteeing connectivity when everything is up).
  for (int seg = 1; seg < num_segments; ++seg) {
    // Find a site homed on segment 0 to act as gateway.
    for (int i = 0; i < num_sites; ++i) {
      if (home[i] == segments[0]) {
        builder.AddGateway(i, segments[seg]);
        break;
      }
    }
  }
  auto topo = builder.Build();
  EXPECT_TRUE(topo.ok()) << topo.status();
  c.topology = topo.MoveValue();

  // Random placement of 3..num_sites copies.
  int copies = 3 + static_cast<int>(rng->NextBounded(num_sites - 2));
  while (c.placement.Size() < copies) {
    c.placement.Add(static_cast<SiteId>(rng->NextBounded(num_sites)));
  }
  return c;
}

TEST(AnalyticPropertyTest, SimulationMatchesClosedFormOnRandomSystems) {
  Rng rng(0xA11A);
  for (int trial = 0; trial < 8; ++trial) {
    RandomCase c = MakeCase(&rng);

    auto analytic = AnalyticMcvAvailability(c.topology, c.profiles,
                                            c.placement);
    ASSERT_TRUE(analytic.ok()) << analytic.status();
    double analytic_u = 1.0 - *analytic;

    ExperimentSpec spec;
    spec.topology = c.topology;
    spec.profiles = c.profiles;
    spec.options.warmup = Days(50);
    spec.options.num_batches = 10;
    spec.options.batch_length = Years(40);
    spec.options.seed = 555 + trial;
    std::vector<std::unique_ptr<ConsistencyProtocol>> protocols;
    protocols.push_back(
        MajorityConsensusVoting::Make(c.placement).MoveValue());
    auto results = RunAvailabilityExperiment(spec, std::move(protocols));
    ASSERT_TRUE(results.ok()) << results.status();

    double sim_u = (*results)[0].unavailability;
    double ci = (*results)[0].stats.ci95_halfwidth;
    // Within 4 CI halfwidths or 20% relative — the analytic value
    // ignores O(u^2) maintenance/failure interactions, the simulation
    // has finite-run noise.
    EXPECT_NEAR(sim_u, analytic_u,
                std::max(4 * ci, 0.2 * analytic_u + 1e-5))
        << "trial " << trial << " placement " << c.placement.ToString()
        << " (analytic " << analytic_u << ", simulated " << sim_u << " ± "
        << ci << ")";
  }
}

}  // namespace
}  // namespace dynvote
