// E6 (ablation): what the lexicographic tie-break is worth, and how much
// the *choice of ordering* matters. Jajodia's rule awards ties to the
// group holding the maximum element; since site reliabilities differ by
// orders of magnitude (Table 1), ranking a reliable site first should
// beat ranking a flaky one first. We emulate different orderings by
// giving the intended maximum element a marginally heavier vote (the
// classic weight-assignment encoding of a static preference), which
// shifts every tie toward it without changing any strict majority.
//
// Flags: --years=N (default 400), --seed=N, --configs= (default FH)

#include <iostream>

#include "bench_util.h"
#include "core/registry.h"
#include "model/site_profile.h"
#include "stats/table.h"
#include "core/dynamic_voting.h"

namespace dynvote {
namespace bench {
namespace {

// Builds an LDV variant whose ties favour `preferred` via weights 2 on it
// and 2 on everyone else *except* one site at weight 1... simpler: the
// lexicographic rule already favours the lowest id, so to prefer another
// site we rely on weights: preferred gets 3 votes, others 2 — every tie
// (equal weight halves) becomes impossible and near-ties resolve toward
// the preferred site, approximating a reordering.
Result<std::unique_ptr<ConsistencyProtocol>> MakePreferring(
    std::shared_ptr<const Topology> topo, SiteSet placement,
    SiteId preferred, const std::string& name) {
  std::vector<int> weights(8, 2);
  weights[preferred] = 3;
  DynamicVotingOptions options;
  auto w = VoteWeights::Make(weights);
  if (!w.ok()) return w.status();
  options.weights = *w;
  options.tie_break = TieBreak::kLexicographic;
  options.name = name;
  auto dv = DynamicVoting::Make(std::move(topo), placement, options);
  if (!dv.ok()) return dv.status();
  return std::unique_ptr<ConsistencyProtocol>(dv.MoveValue());
}

int Run(BenchArgs args) {
  if (args.configs == "ABCDEFGH") args.configs = "FH";
  auto network = MakePaperNetwork();
  if (!network.ok()) {
    std::cerr << network.status() << "\n";
    return 1;
  }

  std::cout << "=== Tie-break ablation ===\n"
            << "DV (no tie-break) vs LDV (max-element rule) vs weighted "
               "variants preferring the most / least reliable copy.\n\n";

  int failures = 0;
  for (char label : args.configs) {
    const PaperConfiguration* config = PaperConfigurationFor(label);
    if (config == nullptr) continue;

    // Most reliable member: lowest id (csvax/beowulf end of Table 1);
    // least reliable: highest id (the 50-day/2-week machines).
    SiteId best = config->placement.RankMax();
    SiteId worst = config->placement.RankMin();

    ExperimentSpec spec;
    spec.topology = network->topology;
    spec.profiles = network->profiles;
    spec.options = MakeOptions(args);

    std::vector<std::unique_ptr<ConsistencyProtocol>> protocols =
        MakeProtocolSet({"DV", "LDV"}, network->topology, config->placement)
            .MoveValue();
    auto pref_best = MakePreferring(network->topology, config->placement,
                                    best, "LDV-pref-reliable");
    auto pref_worst = MakePreferring(network->topology, config->placement,
                                     worst, "LDV-pref-flaky");
    if (!pref_best.ok() || !pref_worst.ok()) {
      std::cerr << "weighted construction failed" << "\n";
      return 1;
    }
    protocols.push_back(pref_best.MoveValue());
    protocols.push_back(pref_worst.MoveValue());

    auto results = RunAvailabilityExperiment(spec, std::move(protocols));
    if (!results.ok()) {
      std::cerr << results.status() << "\n";
      return 1;
    }

    TextTable table({"Policy", "Unavailability", "95% CI ±", "Periods"});
    for (const PolicyResult& r : *results) {
      table.AddRow({r.name, TextTable::Fixed6(r.unavailability),
                    TextTable::Fixed6(r.stats.ci95_halfwidth),
                    std::to_string(r.num_unavailable_periods)});
    }
    std::cout << "Configuration " << label << " (copies "
              << config->description << "):\n"
              << table.ToString() << "\n";

    double dv = ResultOf(*results, "DV").unavailability;
    double ldv = ResultOf(*results, "LDV").unavailability;
    double pref_reliable =
        ResultOf(*results, "LDV-pref-reliable").unavailability;
    double pref_flaky = ResultOf(*results, "LDV-pref-flaky").unavailability;
    std::vector<ShapeCheck> checks = {
        {std::string("config ") + label +
             ": any tie-break beats none (LDV < DV)",
         ldv < dv},
        {std::string("config ") + label +
             ": the ordering matters — preferring the most reliable copy "
             "is no worse than preferring the flakiest",
         pref_reliable <= pref_flaky + 1e-6},
    };
    failures += ReportShapeChecks(checks);
    std::cout << "\n";
  }
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
