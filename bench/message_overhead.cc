// E9: the message-traffic argument of Section 2.1 — the optimistic
// algorithms have "much the same message traffic overhead as majority
// consensus voting", while the instantaneous-information algorithms pay
// for their connection vector on every change of network status. This
// bench reports messages per granted access and per simulated year, by
// kind, for all six policies — configuration B by default, or each
// configuration named in --configs in turn.
//
// Flags: --years=N (default 200), --seed=N, --configs=B..H (every
// listed configuration is run)

#include <iostream>

#include "bench_util.h"
#include "core/registry.h"
#include "model/site_profile.h"
#include "stats/table.h"

namespace dynvote {
namespace bench {
namespace {

int RunConfig(const BenchArgs& args, char config) {
  ExperimentOptions options = MakeOptions(args);
  auto results = RunPaperExperiment(config, PaperProtocolNames(), options);
  if (!results.ok()) {
    std::cerr << results.status() << "\n";
    return 1;
  }

  std::cout << "=== Message overhead (configuration " << config << ", "
            << args.years << " years, 1 access/day) ===\n\n";

  TextTable table({"Policy", "ctrl msgs/access", "refresh msgs/day",
                   "file copies", "total msgs"});
  double mcv_per_access = 0.0;
  double odv_per_access = 0.0;
  double ldv_refresh = 0.0;
  double odv_refresh = 0.0;
  for (const PolicyResult& r : *results) {
    double per_access =
        r.accesses_attempted > 0
            ? static_cast<double>(r.messages.ControlTotal() -
                                  r.messages.count(
                                      MessageKind::kInstantRefresh))
                  / r.accesses_attempted
            : 0.0;
    double refresh_per_day =
        static_cast<double>(r.messages.count(MessageKind::kInstantRefresh)) /
        (args.years * 365.0);
    if (r.name == "MCV") mcv_per_access = per_access;
    if (r.name == "ODV") {
      odv_per_access = per_access;
      odv_refresh = refresh_per_day;
    }
    if (r.name == "LDV") ldv_refresh = refresh_per_day;
    table.AddRow({r.name, TextTable::Fixed(per_access, 2),
                  TextTable::Fixed(refresh_per_day, 2),
                  std::to_string(r.messages.count(MessageKind::kFileCopy)),
                  std::to_string(r.messages.Total())});
  }
  std::cout << table.ToString();

  // Multi-file amortisation: the connection-vector cost is *per file* —
  // a server holding many replicated files pays it for each, which is
  // [BMP87]'s practicality complaint. Simulate K independent files (same
  // placement) and compare total refresh traffic.
  std::cout << "\nMulti-file refresh traffic (configuration " << config
            << ", " << TextTable::Fixed(args.years / 4, 0)
            << " years):\n";
  TextTable multi({"Files", "LDV refresh msgs", "ODV refresh msgs",
                   "LDV refresh msgs/file/day"});
  auto network = MakePaperNetwork();
  const PaperConfiguration* pc = PaperConfigurationFor(config);
  bool amortisation_linear = true;
  double per_file_per_day_at_1 = 0.0;
  for (int files : {1, 4, 16}) {
    ExperimentSpec spec;
    spec.topology = network->topology;
    spec.profiles = network->profiles;
    spec.options = MakeOptions(args);
    spec.options.batch_length = Years(args.years / 4 / 10);
    spec.options.num_batches = 10;
    std::vector<std::unique_ptr<ConsistencyProtocol>> protocols;
    for (int f = 0; f < files; ++f) {
      protocols.push_back(
          MakeProtocolByName("LDV", network->topology, pc->placement)
              .MoveValue());
    }
    for (int f = 0; f < files; ++f) {
      protocols.push_back(
          MakeProtocolByName("ODV", network->topology, pc->placement)
              .MoveValue());
    }
    auto multi_results =
        RunAvailabilityExperiment(spec, std::move(protocols));
    if (!multi_results.ok()) {
      std::cerr << multi_results.status() << "\n";
      return 1;
    }
    std::uint64_t ldv_total = 0;
    std::uint64_t odv_total = 0;
    for (int f = 0; f < files; ++f) {
      ldv_total +=
          (*multi_results)[f].messages.count(MessageKind::kInstantRefresh);
      odv_total += (*multi_results)[files + f].messages.count(
          MessageKind::kInstantRefresh);
    }
    double days = args.years / 4 * 365.0;
    double per_file_per_day = ldv_total / days / files;
    if (files == 1) {
      per_file_per_day_at_1 = per_file_per_day;
    } else if (per_file_per_day < 0.9 * per_file_per_day_at_1 ||
               per_file_per_day > 1.1 * per_file_per_day_at_1) {
      amortisation_linear = false;
    }
    multi.AddRow({std::to_string(files), std::to_string(ldv_total),
                  std::to_string(odv_total),
                  TextTable::Fixed(per_file_per_day, 2)});
  }
  std::cout << multi.ToString();

  std::vector<ShapeCheck> checks = {
      {"ODV per-access control traffic within 25% of MCV's (the paper's "
       "\"much the same overhead\")",
       odv_per_access <= 1.25 * mcv_per_access},
      {"ODV needs no connection-vector refresh traffic at all",
       odv_refresh == 0.0},
      {"LDV pays refresh traffic continuously (> 0 messages/day)",
       ldv_refresh > 0.0},
      {"the connection-vector cost scales linearly with the number of "
       "replicated files ([BMP87]'s practicality complaint)",
       amortisation_linear},
  };
  return ReportShapeChecks(checks);
}

int Run(const BenchArgs& args) {
  // The shared default configs string means "no --configs given"; this
  // bench historically reports configuration B alone. An explicit
  // --configs=C (or =CDE) runs exactly the configurations named — the
  // old code took the first letter and then silently remapped it to B.
  std::string configs =
      args.configs.empty() || args.configs == "ABCDEFGH" ? "B" : args.configs;
  int rc = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (i > 0) std::cout << "\n";
    rc |= RunConfig(args, configs[i]);
  }
  return rc;
}

}  // namespace
}  // namespace bench
}  // namespace dynvote

int main(int argc, char** argv) {
  dynvote::bench::BenchArgs args = dynvote::bench::ParseArgs(argc, argv);
  if (args.years == 600.0) args.years = 200.0;
  return dynvote::bench::Run(args);
}
