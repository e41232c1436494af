// E15 (ablation): gateway hosts vs dedicated repeaters. In the paper's
// network the bridging function lives on ordinary machines (wizard,
// amos), so one hardware failure both removes a potential copy holder
// and partitions a segment. This bench rebuilds Figure 8 with dedicated
// repeaters carrying the same failure law as the hosts they replace
// (wizard and amos become ordinary, non-bridging sites) and measures what
// decoupling the two roles is worth for the partition-exposed
// configurations.
//
// Flags: --years=N (default 400), --seed=N

#include <iostream>

#include "bench_util.h"
#include "core/registry.h"
#include "model/site_profile.h"
#include "stats/table.h"

namespace dynvote {
namespace bench {
namespace {

/// Figure 8 with repeaters instead of gateway hosts.
Result<PaperNetwork> MakeRepeaterVariant(
    std::vector<RepeaterProfile>* repeater_profiles) {
  auto builder = Topology::Builder();
  SegmentId main_seg = builder.AddSegment("main");
  SegmentId second = builder.AddSegment("second");
  SegmentId third = builder.AddSegment("third");
  builder.AddSite("csvax", main_seg);
  builder.AddSite("beowulf", main_seg);
  builder.AddSite("grendel", main_seg);
  builder.AddSite("wizard", main_seg);  // ordinary site now
  builder.AddSite("amos", main_seg);    // ordinary site now
  builder.AddSite("gremlin", second);
  builder.AddSite("rip", third);
  builder.AddSite("mangle", third);
  builder.AddRepeater("rep-second", main_seg, second);
  builder.AddRepeater("rep-third", main_seg, third);
  auto topo = builder.Build();
  if (!topo.ok()) return topo.status();

  auto paper = MakePaperNetwork();
  if (!paper.ok()) return paper.status();
  // The repeaters inherit the failure behaviour of the gateway hosts
  // they replace: same 50-day MTTF and the same 7-day mean repair
  // (84 h constant + 84 h exponential matches the hosts' mixed law in
  // expectation).
  repeater_profiles->clear();
  repeater_profiles->push_back(RepeaterProfile{"rep-second", 50.0,
                                               168.0 * 0.5, 168.0 * 0.5});
  repeater_profiles->push_back(RepeaterProfile{"rep-third", 50.0,
                                               168.0 * 0.5, 168.0 * 0.5});
  return PaperNetwork{topo.MoveValue(), paper->profiles};
}

int Run(const BenchArgs& args) {
  std::cout << "=== Gateway hosts vs dedicated repeaters ===\n"
            << "Same Figure 8 shape; bridging decoupled from wizard/amos "
               "(repeaters inherit their failure law).\n\n";

  auto gateway_net = MakePaperNetwork();
  std::vector<RepeaterProfile> repeater_profiles;
  auto repeater_net = MakeRepeaterVariant(&repeater_profiles);
  if (!gateway_net.ok() || !repeater_net.ok()) {
    std::cerr << "network construction failed" << "\n";
    return 1;
  }

  TextTable table({"Config", "Policy", "Gateway hosts", "Repeaters",
                   "Repeater/Gateway"});
  int failures = 0;
  std::vector<ShapeCheck> checks;
  for (char label : std::string("AEF")) {
    const PaperConfiguration* config = PaperConfigurationFor(label);
    std::map<std::string, double> gateway_u;
    std::map<std::string, double> repeater_u;
    for (int variant = 0; variant < 2; ++variant) {
      ExperimentSpec spec;
      if (variant == 0) {
        spec.topology = gateway_net->topology;
        spec.profiles = gateway_net->profiles;
      } else {
        spec.topology = repeater_net->topology;
        spec.profiles = repeater_net->profiles;
        spec.repeater_profiles = repeater_profiles;
      }
      spec.options = MakeOptions(args);
      auto results = RunAvailabilityExperiment(
          spec, MakeProtocolSet({"MCV", "LDV", "ODV"}, spec.topology,
                                config->placement)
                    .MoveValue());
      if (!results.ok()) {
        std::cerr << results.status() << "\n";
        return 1;
      }
      for (const PolicyResult& r : *results) {
        (variant == 0 ? gateway_u : repeater_u)[r.name] = r.unavailability;
      }
    }
    for (const char* name : {"MCV", "LDV", "ODV"}) {
      double g = gateway_u[name];
      double r = repeater_u[name];
      table.AddRow({std::string(1, label), name, TextTable::Fixed6(g),
                    TextTable::Fixed6(r),
                    g > 0 ? TextTable::Fixed(r / g, 2) : "-"});
    }
    table.AddRule();

    if (label == 'A' || label == 'E') {
      // No placement member sits behind a bridge: the bridging role is
      // irrelevant and the two variants see the identical sample path.
      checks.push_back(
          {std::string("config ") + label +
               ": bridging role irrelevant — variants identical",
           gateway_u["LDV"] == repeater_u["LDV"] &&
               gateway_u["MCV"] == repeater_u["MCV"]});
    }
    if (label == 'F') {
      // Wizard holds a copy AND bridges gremlin: coupling its failure to
      // a partition is what makes F hard. Decoupling must help every
      // policy.
      checks.push_back(
          {"config F: decoupling the bridge from the copy-holding site "
           "helps every policy",
           repeater_u["MCV"] < gateway_u["MCV"] &&
               repeater_u["LDV"] < gateway_u["LDV"] &&
               repeater_u["ODV"] < gateway_u["ODV"]});
    }
  }
  std::cout << table.ToString();
  failures += ReportShapeChecks(checks);
  return failures;
}

}  // namespace
}  // namespace bench
}  // namespace dynvote

int main(int argc, char** argv) {
  dynvote::bench::BenchArgs args = dynvote::bench::ParseArgs(argc, argv);
  if (args.years == 600.0) args.years = 400.0;
  return dynvote::bench::Run(args);
}
