#include "model/analytic.h"

#include <gtest/gtest.h>

#include "core/test_topologies.h"
#include "model/experiment.h"

namespace dynvote {
namespace {

SiteProfile Simple(double mttf_days, double repair_days) {
  SiteProfile p;
  p.name = std::string("s");
  p.mttf_days = mttf_days;
  p.hardware_fraction = 1.0;
  p.hw_repair_exp_hours = repair_days * 24.0;
  return p;
}

TEST(SteadyStateTest, FailureOnly) {
  // MTTF 10, repair 1: availability 10/11.
  EXPECT_NEAR(SteadyStateAvailability(Simple(10, 1)), 10.0 / 11.0, 1e-12);
}

TEST(SteadyStateTest, MaintenanceOnly) {
  SiteProfile p = Simple(1e12, 1e-9);
  p.maintenance_interval_days = 90.0;
  p.maintenance_hours = 3.0;
  EXPECT_NEAR(SteadyStateUnavailability(p), (3.0 / 24.0) / 90.0, 1e-9);
}

TEST(SteadyStateTest, PaperTable1Values) {
  auto paper = MakePaperNetwork();
  ASSERT_TRUE(paper.ok());
  // wizard: 50% of failures take 336 h, 50% take 15 min -> u ~ 0.123.
  EXPECT_NEAR(SteadyStateUnavailability(paper->profiles[3]), 0.123, 0.005);
  // csvax: tiny failure repair + 3 h / 90 d maintenance -> u ~ 0.0020.
  EXPECT_NEAR(SteadyStateUnavailability(paper->profiles[0]), 0.0020,
              0.0003);
}

TEST(EnumerateAvailabilityTest, Validates) {
  auto topo = testing_util::SingleSegment(2);
  std::vector<SiteProfile> profiles(2, Simple(10, 1));
  EXPECT_FALSE(EnumerateAvailability(nullptr, profiles, SiteSet{0},
                                     [](const NetworkState&) {
                                       return true;
                                     })
                   .ok());
  EXPECT_FALSE(EnumerateAvailability(topo, {}, SiteSet{0},
                                     [](const NetworkState&) {
                                       return true;
                                     })
                   .ok());
  EXPECT_FALSE(
      EnumerateAvailability(topo, profiles, SiteSet{0}, nullptr).ok());
  EXPECT_FALSE(EnumerateAvailability(topo, profiles, SiteSet{0, 5},
                                     [](const NetworkState&) {
                                       return true;
                                     })
                   .ok());
}

TEST(EnumerateAvailabilityTest, SingleSiteRule) {
  auto topo = testing_util::SingleSegment(1);
  std::vector<SiteProfile> profiles = {Simple(10, 1)};
  auto up = EnumerateAvailability(
      topo, profiles, SiteSet{0},
      [](const NetworkState& net) { return net.IsSiteUp(0); });
  ASSERT_TRUE(up.ok());
  EXPECT_NEAR(*up, 10.0 / 11.0, 1e-12);
}

TEST(EnumerateAvailabilityTest, SeriesAndParallel) {
  auto topo = testing_util::SingleSegment(2);
  std::vector<SiteProfile> profiles = {Simple(10, 1), Simple(20, 2)};
  double a0 = 10.0 / 11.0;
  double a1 = 20.0 / 22.0;
  auto both = EnumerateAvailability(
      topo, profiles, SiteSet{0, 1}, [](const NetworkState& net) {
        return net.IsSiteUp(0) && net.IsSiteUp(1);
      });
  ASSERT_TRUE(both.ok());
  EXPECT_NEAR(*both, a0 * a1, 1e-12);
  auto either = EnumerateAvailability(
      topo, profiles, SiteSet{0, 1}, [](const NetworkState& net) {
        return net.IsSiteUp(0) || net.IsSiteUp(1);
      });
  ASSERT_TRUE(either.ok());
  EXPECT_NEAR(*either, 1.0 - (1.0 - a0) * (1.0 - a1), 1e-12);
}

TEST(AnalyticMcvTest, ThreeCopiesMajority) {
  // 2-of-3 majority on one segment: availability = sum of states with
  // >= 2 sites up.
  auto topo = testing_util::SingleSegment(3);
  std::vector<SiteProfile> profiles(3, Simple(10, 1));
  double a = 10.0 / 11.0;
  auto result = AnalyticMcvAvailability(topo, profiles, SiteSet{0, 1, 2});
  ASSERT_TRUE(result.ok());
  double expected = a * a * a + 3 * a * a * (1 - a);
  EXPECT_NEAR(*result, expected, 1e-12);
}

TEST(AnalyticMcvTest, TieBreakMatters) {
  // Four copies: with the lexicographic tie rule, the 2-up states
  // containing site 0 also count.
  auto topo = testing_util::SingleSegment(4);
  std::vector<SiteProfile> profiles(4, Simple(10, 1));
  double a = 10.0 / 11.0;
  auto strict = AnalyticMcvAvailability(topo, profiles, SiteSet{0, 1, 2, 3},
                                        TieBreak::kNone);
  auto lex = AnalyticMcvAvailability(topo, profiles, SiteSet{0, 1, 2, 3},
                                     TieBreak::kLexicographic);
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(lex.ok());
  double p4 = a * a * a * a;
  double p3 = 4 * a * a * a * (1 - a);
  double p2_with0 = 3 * a * a * (1 - a) * (1 - a);  // {0,x}: 3 choices
  EXPECT_NEAR(*strict, p4 + p3, 1e-12);
  EXPECT_NEAR(*lex, p4 + p3 + p2_with0, 1e-12);
  EXPECT_GT(*lex, *strict);
}

TEST(AnalyticMcvTest, GatewayPartitionAccounted) {
  // Paper configuration B (copies at 0, 1, 5): site 5 is reachable only
  // through gateway 3, so the analytic rule must treat "gateway down" as
  // "copy 5 unreachable".
  auto paper = MakePaperNetwork();
  ASSERT_TRUE(paper.ok());
  auto with_gateway = AnalyticMcvAvailability(
      paper->topology, paper->profiles, SiteSet{0, 1, 5});
  ASSERT_TRUE(with_gateway.ok());

  // Hand computation with effective availability of copy 5 = a5 * a3:
  double a0 = SteadyStateAvailability(paper->profiles[0]);
  double a1 = SteadyStateAvailability(paper->profiles[1]);
  double a5 = SteadyStateAvailability(paper->profiles[5]) *
              SteadyStateAvailability(paper->profiles[3]);
  double expected = a0 * a1 * a5 + a0 * a1 * (1 - a5) +
                    a0 * (1 - a1) * a5 + (1 - a0) * a1 * a5;
  EXPECT_NEAR(*with_gateway, expected, 1e-9);
}

TEST(AnalyticMcvTest, AgreesWithSimulationOnPaperConfigs) {
  // The end-to-end cross-check: analytic MCV availability within the
  // simulation's confidence interval (a few tolerance multiples) for all
  // eight paper placements, the four-copy tie-rule ones (E-H) included.
  // The tolerance, max(3 CI, 25%), was fixed before the run.
  auto paper = MakePaperNetwork();
  ASSERT_TRUE(paper.ok());
  ExperimentOptions options;
  options.warmup = Days(360);
  options.num_batches = 10;
  options.batch_length = Years(30);
  for (char config : {'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H'}) {
    const PaperConfiguration* pc = PaperConfigurationFor(config);
    ASSERT_NE(pc, nullptr);
    auto analytic = AnalyticMcvAvailability(paper->topology,
                                            paper->profiles, pc->placement);
    ASSERT_TRUE(analytic.ok());
    auto simulated = RunPaperExperiment(config, {"MCV"}, options);
    ASSERT_TRUE(simulated.ok());
    double sim_u = (*simulated)[0].unavailability;
    double ana_u = 1.0 - *analytic;
    EXPECT_NEAR(sim_u, ana_u,
                std::max(3 * (*simulated)[0].stats.ci95_halfwidth,
                         0.25 * ana_u))
        << "config " << config;
  }
}

}  // namespace
}  // namespace dynvote
