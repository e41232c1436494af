#include "model/config_parser.h"

#include <gtest/gtest.h>

#include <string>

#include "test_text.h"
#include "util/thread_pool.h"

namespace dynvote {
namespace {

constexpr char kSmallConfig[] = R"(
# two segments joined by a repeater
segment left
segment right
site a left mttf=10 hw=0.25 restart=5 repair-const=1 repair-exp=12
site b left
site c right maint-interval=30 maint-hours=2
repeater bridge left right mttf=100 repair-exp=6
)";

TEST(ConfigParserTest, ParsesSegmentsSitesRepeaters) {
  auto config = ParseNetworkConfig(kSmallConfig);
  ASSERT_TRUE(config.ok()) << config.status();
  const Topology& topo = *config->topology;
  EXPECT_EQ(topo.num_segments(), 2);
  EXPECT_EQ(topo.num_sites(), 3);
  EXPECT_EQ(topo.num_repeaters(), 1);
  EXPECT_EQ(topo.site(0).name, "a");
  EXPECT_FALSE(topo.SameSegment(0, 2));

  const SiteProfile& a = config->profiles[0];
  EXPECT_EQ(a.mttf_days, 10.0);
  EXPECT_EQ(a.hardware_fraction, 0.25);
  EXPECT_EQ(a.restart_minutes, 5.0);
  EXPECT_EQ(a.hw_repair_const_hours, 1.0);
  EXPECT_EQ(a.hw_repair_exp_hours, 12.0);

  // Defaults applied.
  const SiteProfile& b = config->profiles[1];
  EXPECT_EQ(b.mttf_days, 365.0);
  EXPECT_EQ(b.hardware_fraction, 0.5);
  EXPECT_EQ(b.restart_minutes, 15.0);

  const SiteProfile& c = config->profiles[2];
  EXPECT_EQ(c.maintenance_interval_days, 30.0);
  EXPECT_EQ(c.maintenance_hours, 2.0);

  ASSERT_EQ(config->repeater_profiles.size(), 1u);
  EXPECT_EQ(config->repeater_profiles[0].mttf_days, 100.0);
  EXPECT_EQ(config->repeater_profiles[0].repair_exp_hours, 6.0);
}

TEST(ConfigParserTest, GatewayMayPrecedeSiteDeclaration) {
  auto config = ParseNetworkConfig(R"(
segment m
segment s
gateway g s
site g m
site leaf s
)");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->topology->num_bridges(), 1);
  EXPECT_EQ(config->topology->bridges()[0].gateway_site, 0);
}

TEST(ConfigParserTest, ErrorsCarryLineNumbers) {
  struct Case {
    const char* text;
    const char* needle;
  };
  const Case cases[] = {
      {"segment a\nsegment a", "line 2: duplicate segment"},
      {"site x nowhere", "line 1: unknown segment"},
      {"segment s\nsite x s mttf=abc", "bad number"},
      {"segment s\nsite x s mttf=1 mttf=2", "duplicate key"},
      {"segment s\nsite x s frob=1", "unknown key"},
      {"segment s\nsite x s mttf=-1", "mttf must be > 0"},
      {"segment s\nsite x s hw=1.5", "hw must be in [0, 1]"},
      {"bogus decl", "unknown declaration"},
      {"segment s\ngateway ghost s", "unknown site"},
      {"segment s\nsite x s\nsite x s", "duplicate site"},
      {"segment a\nsegment b\nrepeater r a missing", "unknown segment"},
  };
  for (const Case& c : cases) {
    Status st = ParseNetworkConfig(c.text).status();
    ASSERT_TRUE(st.IsInvalidArgument()) << c.text;
    EXPECT_NE(st.message().find(c.needle), std::string::npos)
        << c.text << " -> " << st.message();
  }
}

TEST(ConfigParserTest, EmptyConfigFailsAtBuild) {
  EXPECT_FALSE(ParseNetworkConfig("# nothing\n").ok());
}

TEST(ConfigParserTest, PaperNetworkFileMatchesBuiltin) {
  // The shipped examples/networks/paper.net must parse to exactly the
  // built-in MakePaperNetwork(). Locate the file relative to the source
  // tree via the compile-time path of this test file.
  std::string source_dir = __FILE__;
  source_dir = source_dir.substr(0, source_dir.rfind("/tests/"));
  auto config =
      LoadNetworkConfig(source_dir + "/examples/networks/paper.net");
  ASSERT_TRUE(config.ok()) << config.status();

  auto builtin = MakePaperNetwork();
  ASSERT_TRUE(builtin.ok());
  const Topology& parsed = *config->topology;
  const Topology& expected = *builtin->topology;
  ASSERT_EQ(parsed.num_sites(), expected.num_sites());
  ASSERT_EQ(parsed.num_segments(), expected.num_segments());
  ASSERT_EQ(parsed.num_bridges(), expected.num_bridges());
  for (SiteId s = 0; s < expected.num_sites(); ++s) {
    EXPECT_EQ(parsed.site(s).name, expected.site(s).name);
    EXPECT_EQ(parsed.SegmentOf(s), expected.SegmentOf(s));
    const SiteProfile& p = config->profiles[s];
    const SiteProfile& e = builtin->profiles[s];
    EXPECT_EQ(p.mttf_days, e.mttf_days) << s;
    EXPECT_EQ(p.hardware_fraction, e.hardware_fraction) << s;
    EXPECT_EQ(p.restart_minutes, e.restart_minutes) << s;
    EXPECT_EQ(p.hw_repair_const_hours, e.hw_repair_const_hours) << s;
    EXPECT_EQ(p.hw_repair_exp_hours, e.hw_repair_exp_hours) << s;
    EXPECT_EQ(p.maintenance_interval_days, e.maintenance_interval_days)
        << s;
    EXPECT_EQ(p.maintenance_hours, e.maintenance_hours) << s;
  }
}

TEST(ConfigParserTest, RoundTripThroughToString) {
  auto config = ParseNetworkConfig(kSmallConfig);
  ASSERT_TRUE(config.ok());
  std::string rendered = NetworkConfigToString(*config);
  auto reparsed = ParseNetworkConfig(rendered);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << rendered;
  EXPECT_EQ(reparsed->topology->num_sites(), 3);
  EXPECT_EQ(reparsed->profiles[0].mttf_days, 10.0);
  EXPECT_EQ(reparsed->repeater_profiles[0].repair_exp_hours, 6.0);
  EXPECT_EQ(NetworkConfigToString(*reparsed), rendered);
}

TEST(ConfigParserTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadNetworkConfig("/no/such/file.net").ok());
}

TEST(ConfigParserTest, ExperimentDeclarationDefaults) {
  auto config = ParseNetworkConfig(kSmallConfig);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->replications, 1);
  EXPECT_EQ(config->jobs, 1);
}

TEST(ConfigParserTest, ExperimentDeclarationParsesAndRoundTrips) {
  auto config = ParseNetworkConfig(std::string(kSmallConfig) +
                                   "experiment replications=8 jobs=4\n");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->replications, 8);
  EXPECT_EQ(config->jobs, 4);

  std::string rendered = NetworkConfigToString(*config);
  auto reparsed = ParseNetworkConfig(rendered);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << rendered;
  EXPECT_EQ(reparsed->replications, 8);
  EXPECT_EQ(reparsed->jobs, 4);
  EXPECT_EQ(NetworkConfigToString(*reparsed), rendered);
}

TEST(ConfigParserTest, ExperimentDeclarationValidates) {
  auto bad_reps = ParseNetworkConfig("experiment replications=0\n");
  EXPECT_TRUE(bad_reps.status().IsInvalidArgument());
  auto fractional = ParseNetworkConfig("experiment replications=1.5\n");
  EXPECT_TRUE(fractional.status().IsInvalidArgument());
  auto negative = ParseNetworkConfig("experiment jobs=-2\n");
  EXPECT_TRUE(negative.status().IsInvalidArgument());
  auto unknown = ParseNetworkConfig("experiment threads=4\n");
  EXPECT_TRUE(unknown.status().IsInvalidArgument());
  auto duplicate = ParseNetworkConfig(
      "experiment jobs=2\nexperiment jobs=3\n");
  EXPECT_TRUE(duplicate.status().IsInvalidArgument());
}

TEST(ConfigParserTest, ExperimentJobsAboveTheWorkerCapAreRejected) {
  // A network file must not ask the OS for more threads than the cap;
  // only the rejection is run, never a pool of that size.
  auto at_cap = ParseNetworkConfig(testing_util::Cat(
      {kSmallConfig, "experiment jobs=", std::to_string(kMaxWorkerThreads),
       "\n"}));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status();
  EXPECT_EQ(at_cap->jobs, kMaxWorkerThreads);
  auto above = ParseNetworkConfig(testing_util::Cat(
      {"segment s\nsite a s\nexperiment jobs=",
       std::to_string(kMaxWorkerThreads + 1), "\n"}));
  EXPECT_TRUE(above.status().IsInvalidArgument());
  EXPECT_NE(above.status().message().find("line 3:"), std::string::npos)
      << above.status();
  EXPECT_NE(above.status().message().find("jobs must be in [0, "),
            std::string::npos)
      << above.status();
}

}  // namespace
}  // namespace dynvote
