// E5 (ablation): availability vs replication degree. Section 1 notes that
// dynamic voting "requires a minimum of three copies to be of any
// practical interest"; Section 4 finds DV worse than MCV at three copies
// and better at four (absent ties). This bench grows the placement one
// site at a time following the paper's network (main segment first, then
// across gateways) and prints the unavailability of every policy at each
// degree.
//
// Flags: --years=N (default 400), --seed=N, --reps=N, --jobs=M

#include <iostream>

#include "bench_util.h"
#include "core/registry.h"
#include "model/replicated_experiment.h"
#include "model/site_profile.h"
#include "stats/table.h"

namespace dynvote {
namespace bench {
namespace {

int Run(const BenchArgs& args) {
  auto network = MakePaperNetwork();
  if (!network.ok()) {
    std::cerr << network.status() << "\n";
    return 1;
  }

  // Growth order: csvax, beowulf, gremlin (across wizard), mangle (across
  // amos), grendel, wizard, amos, rip — mixing segments the way the
  // paper's configurations do.
  const SiteId order[] = {0, 1, 5, 7, 2, 3, 4, 6};

  std::cout << "=== Replication-degree sweep (paper network, 1 access/day) "
               "===\n\n";
  TextTable table({"Copies", "Placement", "MCV", "DV", "LDV", "ODV", "TDV",
                   "OTDV"});

  std::vector<double> dv_u(9, -1.0);
  std::vector<double> mcv_u(9, -1.0);
  std::vector<double> ldv_u(9, -1.0);
  SiteSet placement;
  for (int n = 1; n <= 8; ++n) {
    placement.Add(order[n - 1]);
    ExperimentSpec spec;
    spec.topology = network->topology;
    spec.profiles = network->profiles;
    spec.options = MakeOptions(args);
    SiteSet p_now = placement;
    ProtocolSetFactory factory = [&network, p_now] {
      return MakeProtocolSet(PaperProtocolNames(), network->topology, p_now);
    };
    ReplicationOptions replication;
    replication.replications = args.reps;
    replication.jobs = args.jobs;
    auto replicated = RunReplicatedExperiment(spec, factory, replication);
    if (!replicated.ok()) {
      std::cerr << replicated.status() << "\n";
      return 1;
    }
    std::vector<PolicyResult> results = MeanPolicyResults(*replicated);
    auto u = [&](const std::string& name) {
      return ResultOf(results, name).unavailability;
    };
    mcv_u[n] = u("MCV");
    dv_u[n] = u("DV");
    ldv_u[n] = u("LDV");
    table.AddRow({std::to_string(n), placement.ToString(),
                  TextTable::Fixed6(u("MCV")), TextTable::Fixed6(u("DV")),
                  TextTable::Fixed6(u("LDV")), TextTable::Fixed6(u("ODV")),
                  TextTable::Fixed6(u("TDV")),
                  TextTable::Fixed6(u("OTDV"))});
  }
  std::cout << table.ToString();

  std::vector<ShapeCheck> checks = {
      {"1 copy: every policy equals the bare site availability (all "
       "within 10% of each other)",
       dv_u[1] < 1.1 * mcv_u[1] + 1e-6 && mcv_u[1] < 1.1 * dv_u[1] + 1e-6},
      {"3 copies: DV worse than MCV (the paper's first finding)",
       dv_u[3] > mcv_u[3]},
      {"LDV never worse than DV at any degree",
       [&] {
         for (int n = 1; n <= 8; ++n) {
           if (ldv_u[n] > dv_u[n] + 1e-9) return false;
         }
         return true;
       }()},
      {"5 copies beat 3 copies under LDV (more replicas help once past "
       "the minimum)",
       ldv_u[5] <= ldv_u[3] + 1e-6},
  };
  return ReportShapeChecks(checks);
}

}  // namespace
}  // namespace bench
}  // namespace dynvote

int main(int argc, char** argv) {
  dynvote::bench::BenchArgs args = dynvote::bench::ParseArgs(argc, argv);
  if (args.years == 600.0) args.years = 400.0;
  return dynvote::bench::Run(args);
}
