#include "bench_util.h"

#include <cstdlib>
#include <iostream>

#include "core/registry.h"
#include "model/export.h"
#include "model/replicated_experiment.h"
#include "model/site_profile.h"
#include "stats/table.h"
#include "util/parse_number.h"
#include "util/thread_pool.h"

namespace dynvote {
namespace bench {
namespace {

[[noreturn]] void FlagError(const std::string& message) {
  std::cerr << message << "\n";
  std::exit(2);
}

/// The parsed number, or exit 2 naming `flag`.
template <typename T>
T ValueOrExit(const std::string& flag, const Result<T>& parsed) {
  if (!parsed.ok()) FlagError(flag + ": " + parsed.status().message());
  return *parsed;
}

}  // namespace

BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const std::size_t eq = a.find('=');
    const std::string flag = a.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (a == "--no-quorum-cache") {
      args.quorum_cache = false;
    } else if (a == "--verbose") {
      args.verbose = true;
    } else if (eq == std::string::npos) {
      RejectUnknownFlag(a);
    } else if (flag == "--years") {
      args.years = ValueOrExit(flag, ParseDouble(value));
    } else if (flag == "--batches") {
      args.batches = ValueOrExit(flag, ParseInt(value));
    } else if (flag == "--seed") {
      args.seed = ValueOrExit(flag, ParseUint64(value));
    } else if (flag == "--configs") {
      args.configs = value;
    } else if (flag == "--csv") {
      args.csv_path = value;
    } else if (flag == "--reps") {
      args.reps = ValueOrExit(flag, ParseInt(value));
      if (args.reps < 1) {
        FlagError("--reps: must be >= 1, got '" + value + "'");
      }
    } else if (flag == "--jobs") {
      args.jobs = ValueOrExit(flag, ParseInt(value));
      if (Status st = ValidateWorkerCount(args.jobs); !st.ok()) {
        FlagError("--jobs: " + st.message() + ", got '" + value + "'");
      }
    } else if (flag == "--runs") {
      args.runs = ValueOrExit(flag, ParseInt(value));
    } else {
      RejectUnknownFlag(a);
    }
  }
  return args;
}

double ParseDoubleFlag(const std::string& flag, const std::string& value) {
  return ValueOrExit(flag, ParseDouble(value));
}

std::string FormatDouble(double value) { return TextTable::Fixed(value, 3); }

void RejectUnknownFlag(const std::string& arg) {
  FlagError("unknown flag " + arg);
}

ExperimentOptions MakeOptions(const BenchArgs& args) {
  ExperimentOptions options;
  options.warmup = Days(360);
  options.num_batches = args.batches;
  options.batch_length = Years(args.years / args.batches);
  options.access.rate_per_day = 1.0;  // the paper's one access per day
  options.access.write_fraction = 0.5;
  options.seed = args.seed;
  options.quorum_cache = args.quorum_cache;
  return options;
}

GridResults RunPaperGrid(const BenchArgs& args) {
  GridResults grid;
  ExperimentOptions options = MakeOptions(args);
  ReplicationOptions replication;
  replication.replications = args.reps;
  replication.jobs = args.jobs;
  for (char label : args.configs) {
    auto results = RunReplicatedPaperExperiment(label, PaperProtocolNames(),
                                                options, replication);
    if (!results.ok()) {
      std::cerr << "config " << label << ": " << results.status() << "\n";
      std::exit(1);
    }
    grid.by_config[label] = MeanPolicyResults(*results);
  }
  return grid;
}

void MaybeWriteCsv(const BenchArgs& args, const GridResults& grid) {
  if (args.csv_path.empty()) return;
  std::vector<LabeledResult> rows;
  for (const auto& [label, row] : grid.by_config) {
    for (const PolicyResult& r : row) {
      rows.push_back(LabeledResult{std::string(1, label), r});
    }
  }
  Status st = WriteFile(args.csv_path, ResultsToCsv(rows));
  if (!st.ok()) {
    std::cerr << "csv export failed: " << st << "\n";
  } else {
    std::cout << "\nwrote " << rows.size() << " rows to " << args.csv_path
              << "\n";
  }
}

int ReportShapeChecks(const std::vector<ShapeCheck>& checks) {
  int failures = 0;
  std::cout << "\nShape checks (paper section 4 findings):\n";
  for (const ShapeCheck& c : checks) {
    std::cout << "  [" << (c.passed ? "PASS" : "FAIL") << "] "
              << c.description << "\n";
    if (!c.passed) ++failures;
  }
  std::cout << (failures == 0 ? "All shape checks passed.\n"
                              : "Some shape checks FAILED.\n");
  return failures;
}

const PolicyResult& ResultOf(const std::vector<PolicyResult>& row,
                             const std::string& policy) {
  for (const PolicyResult& r : row) {
    if (r.name == policy) return r;
  }
  std::cerr << "policy " << policy << " missing from results\n";
  std::exit(1);
}

}  // namespace bench
}  // namespace dynvote
