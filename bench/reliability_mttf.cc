// Reliability study: the distribution of the time until a replicated
// file first becomes unavailable, across independent simulation runs.
// Section 4's strongest claim is of this kind: "a replicated object with
// a similar copy configuration [E] could remain continuously available
// for more than three hundred years" under TDV/OTDV. This bench measures
// mean time to first outage (right-censored at the horizon) over many
// seeds for configurations E (clustered) and B (a gateway in the way).
//
// Flags: --years=N (horizon per run, default 350), --seed=N,
//        --runs=N (default 25), --configs= (default EB)

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/registry.h"
#include "stats/table.h"
#include "stats/histogram.h"

namespace dynvote {
namespace bench {
namespace {

int Run(const BenchArgs& args) {
  std::cout << "=== Reliability: time to first unavailability ===\n"
            << args.runs << " independent runs per configuration, horizon "
            << args.years << " years each, 1 access/day\n\n";

  int failures = 0;
  for (char config : args.configs) {
    std::map<std::string, Histogram> tallies;

    for (int run = 0; run < args.runs; ++run) {
      ExperimentOptions options = MakeOptions(args);
      options.num_batches = 1;
      options.batch_length = Years(args.years);
      options.seed = args.seed + 1000003ULL * run;
      auto results =
          RunPaperExperiment(config, PaperProtocolNames(), options);
      if (!results.ok()) {
        std::cerr << results.status() << "\n";
        return 1;
      }
      for (const PolicyResult& r : *results) {
        Histogram& h = tallies[r.name];
        if (r.time_to_first_outage < 0.0) {
          h.AddCensored(ToYears(Years(args.years)));  // right-censored
        } else {
          h.Add(ToYears(r.time_to_first_outage));
        }
      }
    }

    TextTable table({"Policy", "Mean (y)", "Median (y)", "p90 (y)",
                     "Runs never unavailable"});
    for (const std::string& name : PaperProtocolNames()) {
      const Histogram& h = tallies[name];
      bool all_censored = h.censored_count() == h.count();
      auto fmt = [&](double v) {
        std::string s = TextTable::Fixed(v, 1);
        return all_censored ? "> " + s : s;
      };
      table.AddRow({name, fmt(h.Mean()), fmt(h.Median()),
                    fmt(h.Quantile(0.9)),
                    std::to_string(h.censored_count()) + "/" +
                        std::to_string(h.count())});
    }
    std::cout << "Configuration " << config << ":\n"
              << table.ToString() << "\n";

    if (config == 'E') {
      const Histogram& tdv = tallies["TDV"];
      const Histogram& mcv = tallies["MCV"];
      std::vector<ShapeCheck> checks = {
          {"config E under TDV: most runs never unavailable across the "
           "whole horizon (the paper's 'three hundred years')",
           tdv.censored_count() >= tdv.count() * 3 / 4},
          {"config E under MCV: first outage within a few years in every "
           "run",
           mcv.censored_count() == 0},
      };
      failures += ReportShapeChecks(checks);
      std::cout << "\n";
    }
  }
  return failures;
}

}  // namespace
}  // namespace bench
}  // namespace dynvote

int main(int argc, char** argv) {
  dynvote::bench::BenchArgs args = dynvote::bench::ParseArgs(argc, argv);
  if (args.years == 600.0) args.years = 350.0;
  if (args.configs == "ABCDEFGH") args.configs = "EB";
  return dynvote::bench::Run(args);
}
