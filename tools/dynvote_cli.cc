// dynvote — command-line front end to the library.
//
//   dynvote print    [--network=FILE]
//   dynvote analyze  [--network=FILE] --sites=a,b,c
//   dynvote simulate [--network=FILE] --sites=a,b,c [--policies=...]
//                    [--years=N] [--rate=R] [--seed=N] [--csv=PATH]
//                    [--trace-out=FILE.{jsonl,btrace}]
//                    [--metrics-out=FILE.json]
//   dynvote repeat   [--network=FILE] --sites=a,b,c [--policies=...]
//                    [--years=N] [--rate=R] [--seed=N] [--reps=N]
//                    [--jobs=M] [--objects=N] [--json=PATH]
//                    [--trace-out=FILE.{jsonl,btrace}]
//                    [--metrics-out=FILE.json]
//   dynvote serve    [--config=ABCDEFGH] [--policies=...]
//                    [--arrival-rate=R] [--service-time=MS]
//                    [--msg-cost=MS] [--write-fraction=F] [--years=N]
//                    [--reps=N] [--jobs=M] [--seed=N] [--json=PATH]
//   dynvote scenario [--network=FILE] --sites=a,b,c [--protocol=LDV]
//                    <script.dvs>
//   dynvote trace-summary <trace.jsonl|trace.btrace>
//   dynvote trace-convert <trace.btrace> [--out=FILE.jsonl]
//   dynvote check    [--protocol=ODV] [--topology=single3] [--depth=5]
//                    [--mode=exhaustive|swarm] [--seed=N] [--schedules=N]
//                    [--swarm-depth=N] [--oracle=NAME] [--weaken-mutex]
//                    [--no-memo] [--no-shrink] [--check-jobs=M] [--no-por]
//                    [--out=FILE.json]
//   dynvote check    --replay=counterexample.json
//   dynvote --version
//
// Flags accept both `--flag=value` and `--flag value`.
//
// Without --network the paper's eight-site network is used and sites may
// be given either by name (csvax, ..., mangle) or by the paper's 1-based
// numbers. `analyze` reports partition points, the reachable partition
// patterns and the closed-form static-voting availability; `simulate`
// runs the discrete-event model; `repeat` runs R independent
// replications of it in parallel and reports cross-replication means
// with 95 % confidence intervals; `serve` runs the serving model
// (docs/serving.md) over the paper's placements and reports per-protocol
// messages-per-access and latency percentiles; `scenario` executes a fault
// script
// against a replicated KV store; `trace-summary` aggregates a trace file
// (dynvote-trace-v1 JSONL, or dynvote-btrace-v1 binary — a `--trace-out`
// path ending in .btrace selects the compact binary format, written
// through a background writer thread) into per-protocol grant/denial
// attribution, and `trace-convert` decodes a binary trace to JSONL that
// is byte-identical to what a direct JSONL run would have produced (see
// docs/observability.md). Tracing never changes statistical results:
// traced and untraced runs of the same seed produce identical tables,
// CSV and JSON. `check` model-checks a protocol's safety
// invariants over small fault/access schedules, shrinks any violation to
// a minimal reproducer and replays exported counterexamples (see
// docs/model_checking.md).

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/checker.h"
#include "check/counterexample.h"
#include "check/topologies.h"
#include "core/registry.h"
#include "kv/scenario.h"
#include "model/analytic.h"
#include "model/config_parser.h"
#include "model/experiment.h"
#include "model/export.h"
#include "model/replicated_experiment.h"
#include "model/site_profile.h"
#include "net/partition_analysis.h"
#include "obs/async_writer.h"
#include "obs/binary_trace.h"
#include "obs/context.h"
#include "obs/schemas.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "stats/table.h"
#include "util/parse_number.h"
#include "version_schemas.h"

namespace dynvote {
namespace cli {
namespace {

struct Options {
  std::string command;
  std::string network_path;  // empty = paper network
  std::string sites;         // comma-separated
  std::string policies = "MCV,DV,LDV,ODV,TDV,OTDV";
  std::string protocol = "LDV";
  std::string csv_path;
  std::string json_path;
  std::string trace_out_path;    // simulate/repeat: JSONL event trace
  std::string metrics_out_path;  // simulate/repeat: metrics JSON
  std::string positional;  // scenario script / trace-summary input path
  double years = 100.0;
  bool years_set = false;  // serve defaults shorter than simulate/repeat
  double rate = 1.0;
  // Serving model (docs/serving.md). On simulate/repeat the model stays
  // off until --arrival-rate is given; `serve` turns it on with the
  // library defaults.
  std::string config = "ABCDEFGH";  // serve: paper placements to run
  double arrival_rate = 0.0;        // > 0 enables serving on simulate/repeat
  double service_time_ms = 1.0;
  double msg_cost_ms = 0.1;
  double write_fraction = 0.5;
  std::uint64_t seed = 20260704;
  bool quorum_cache = true;
  // repeat: -1 = take the value from the network file's `experiment`
  // declaration (default 1).
  int reps = -1;
  int jobs = -1;
  // repeat: replications per pool task (runs the group's objects back
  // to back). Never changes results.
  int objects = 1;
  // check:
  std::string topology = "single3";
  std::string mode = "exhaustive";
  std::string oracle = "none";
  std::string strict = "auto";
  std::string replay_path;
  std::string out_path;
  int depth = 5;
  int schedules = 256;
  int swarm_depth = 12;
  bool memoize = true;
  bool shrink = true;
  bool weaken_mutex = false;
  // check: replay fan-out width and partial-order reduction. Neither
  // ever changes a verdict, a count, or the counterexample.
  int check_jobs = 1;
  bool por = true;
};

// Exit codes: 0 success, 1 runtime failure, 2 bad flags / usage,
// 3 unknown subcommand (distinct so scripts can tell a typo'd command
// from a malformed invocation of a real one).
constexpr int kExitUsage = 2;
constexpr int kExitUnknownCommand = 3;

constexpr const char kSubcommands[] =
    "print analyze simulate repeat serve scenario trace-summary "
    "trace-convert check";

int Usage() {
  std::cerr <<
      "usage: dynvote "
      "<print|analyze|simulate|repeat|serve|scenario|trace-summary|"
      "trace-convert|check> [options]\n"
      "       dynvote --version\n"
      "(flags accept --flag=value and --flag value)\n"
      "  --network=FILE   network description (default: the paper's)\n"
      "  --sites=a,b,c    copy placement (names, or 1-8 on the paper "
      "network)\n"
      "  --policies=...   simulate/repeat: protocols to compare\n"
      "  --protocol=P     scenario: protocol to run\n"
      "  --reps=N         repeat: independent replications\n"
      "  --jobs=M         repeat: worker threads (0 = all cores; never "
      "changes results)\n"
      "  --objects=N      repeat: replications per pool task (runs the\n"
      "                   group's objects back to back; never changes\n"
      "                   results; every run picks its engine itself)\n"
      "  --json=PATH      repeat: write per-replication + aggregate JSON\n"
      "  --trace-out=F    simulate/repeat: write " << kTraceSchema
      << " JSONL events\n"
      "                   (a .btrace path writes " << kBinaryTraceSchema
      << " binary instead)\n"
      "  --out=F          trace-convert: JSONL destination (default: "
      "stdout)\n"
      "  --metrics-out=F  simulate/repeat: write " << kMetricsSchema
      << " JSON metrics\n"
      "  --no-quorum-cache  simulate/repeat: disable grant-decision\n"
      "                   memoization (results are identical either way)\n"
      "  --years=N --rate=R --seed=N --csv=PATH\n"
      "serving model (docs/serving.md; " << kServingSchema << "):\n"
      "  --arrival-rate=R simulate/repeat/serve: open-loop Poisson\n"
      "                   arrivals per day, split across the replicas\n"
      "                   (replaces the closed-loop accessor)\n"
      "  --service-time=MS --msg-cost=MS --write-fraction=F\n"
      "                   per-request base service time, per-control-\n"
      "                   message cost, and write mix\n"
      "  --config=A..H    serve: paper placements to report (default all)\n"
      "  --json=PATH      serve: write the " << kServingSchema
      << " report\n"
      "check options (see docs/model_checking.md):\n"
      "  --topology=T     check universe (single2..single8, pairs, "
      "section3)\n"
      "  --depth=N        exhaustive: maximum schedule length\n"
      "  --mode=M         exhaustive (default) or swarm\n"
      "  --schedules=N --swarm-depth=N  swarm size and schedule length\n"
      "  --oracle=O       none, quorum_cache, jm_equivalence, lex_pair\n"
      "  --strict=S       auto (strict iff partition-safe), on, off\n"
      "  --weaken-mutex   test hook: any grant at all violates\n"
      "  --no-memo        disable canonical-state merging\n"
      "  --check-jobs=M   worker threads for the replay fan-out (0 = all\n"
      "                   cores; never changes results)\n"
      "  --no-por         disable partial-order reduction over commuting\n"
      "                   toggles (applied only where provably sound;\n"
      "                   never changes the visited-state set)\n"
      "  --no-shrink      keep the unshrunk failing schedule\n"
      "  --out=FILE       write the counterexample JSON here\n"
      "  --replay=FILE    replay a " << check::kCounterExampleSchema
      << " file instead of exploring\n";
  return kExitUsage;
}

int UnknownCommand(const std::string& command) {
  std::cerr << "dynvote: unknown command '" << command
            << "'\navailable commands: " << kSubcommands
            << "\n(run a command with no arguments, or see --version)\n";
  return kExitUnknownCommand;
}

int Version() {
  // Prints the registry verbatim: tests/lint/version_schemas_test.cc
  // keeps kAllSchemas equal to the set of schema tokens in the tree, so
  // this loop cannot silently omit a schema.
  std::cout << "dynvote schemas:\n";
  for (const VersionedSchema& schema : kAllSchemas) {
    std::string label = schema.label;
    label.resize(15, ' ');
    std::cout << "  " << label << " " << schema.token << "\n";
  }
  return 0;
}

bool IsBooleanFlag(const std::string& a) {
  return a == "--no-quorum-cache" || a == "--no-memo" || a == "--no-shrink" ||
         a == "--weaken-mutex" || a == "--no-por";
}

/// Parses the number after `prefix` in flag `arg` ("--reps=4" -> 4) with
/// `parse`, naming the flag in the error.
template <typename T>
Result<T> FlagNumber(const std::string& arg, const std::string& prefix,
                     Result<T> (*parse)(const std::string&)) {
  Result<T> number = parse(arg.substr(prefix.size()));
  if (!number.ok()) {
    return Status::InvalidArgument(prefix.substr(0, prefix.size() - 1) +
                                   ": " + number.status().message());
  }
  return number;
}

Result<Options> Parse(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  Options opt;
  opt.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    // Accept `--flag value` by folding it into the `--flag=value` form.
    if (a.rfind("--", 0) == 0 && a.find('=') == std::string::npos &&
        !IsBooleanFlag(a) && i + 1 < argc &&
        std::string(argv[i + 1]).rfind("--", 0) != 0) {
      a += "=";
      a += argv[++i];
    }
    auto value = [&a](const char* prefix) {
      return a.substr(std::string(prefix).size());
    };
    if (a.rfind("--network=", 0) == 0) {
      opt.network_path = value("--network=");
    } else if (a.rfind("--sites=", 0) == 0) {
      opt.sites = value("--sites=");
    } else if (a.rfind("--policies=", 0) == 0) {
      opt.policies = value("--policies=");
    } else if (a.rfind("--protocol=", 0) == 0) {
      opt.protocol = value("--protocol=");
    } else if (a.rfind("--csv=", 0) == 0) {
      opt.csv_path = value("--csv=");
    } else if (a.rfind("--json=", 0) == 0) {
      opt.json_path = value("--json=");
    } else if (a.rfind("--trace-out=", 0) == 0) {
      opt.trace_out_path = value("--trace-out=");
    } else if (a.rfind("--metrics-out=", 0) == 0) {
      opt.metrics_out_path = value("--metrics-out=");
    } else if (a.rfind("--reps=", 0) == 0) {
      DYNVOTE_ASSIGN_OR_RETURN(opt.reps, FlagNumber(a, "--reps=", ParseInt));
      if (opt.reps < 1) {
        return Status::InvalidArgument("--reps must be >= 1");
      }
    } else if (a.rfind("--jobs=", 0) == 0) {
      DYNVOTE_ASSIGN_OR_RETURN(opt.jobs, FlagNumber(a, "--jobs=", ParseInt));
      if (opt.jobs < 0) {
        return Status::InvalidArgument("--jobs must be >= 0 (0 = all cores)");
      }
    } else if (a.rfind("--objects=", 0) == 0) {
      DYNVOTE_ASSIGN_OR_RETURN(
          opt.objects, FlagNumber(a, "--objects=", ParseInt));
      if (opt.objects < 1) {
        return Status::InvalidArgument("--objects must be >= 1");
      }
    } else if (a.rfind("--years=", 0) == 0) {
      DYNVOTE_ASSIGN_OR_RETURN(
          opt.years, FlagNumber(a, "--years=", ParseDouble));
      opt.years_set = true;
    } else if (a.rfind("--rate=", 0) == 0) {
      DYNVOTE_ASSIGN_OR_RETURN(opt.rate, FlagNumber(a, "--rate=", ParseDouble));
    } else if (a.rfind("--config=", 0) == 0) {
      opt.config = value("--config=");
    } else if (a.rfind("--arrival-rate=", 0) == 0) {
      DYNVOTE_ASSIGN_OR_RETURN(
          opt.arrival_rate, FlagNumber(a, "--arrival-rate=", ParseDouble));
      if (opt.arrival_rate <= 0.0) {
        return Status::InvalidArgument("--arrival-rate must be > 0");
      }
    } else if (a.rfind("--service-time=", 0) == 0) {
      DYNVOTE_ASSIGN_OR_RETURN(
          opt.service_time_ms, FlagNumber(a, "--service-time=", ParseDouble));
      if (opt.service_time_ms < 0.0) {
        return Status::InvalidArgument("--service-time must be >= 0");
      }
    } else if (a.rfind("--msg-cost=", 0) == 0) {
      DYNVOTE_ASSIGN_OR_RETURN(
          opt.msg_cost_ms, FlagNumber(a, "--msg-cost=", ParseDouble));
      if (opt.msg_cost_ms < 0.0) {
        return Status::InvalidArgument("--msg-cost must be >= 0");
      }
    } else if (a.rfind("--write-fraction=", 0) == 0) {
      DYNVOTE_ASSIGN_OR_RETURN(
          opt.write_fraction, FlagNumber(a, "--write-fraction=", ParseDouble));
      if (opt.write_fraction < 0.0 || opt.write_fraction > 1.0) {
        return Status::InvalidArgument("--write-fraction must be in [0, 1]");
      }
    } else if (a.rfind("--seed=", 0) == 0) {
      DYNVOTE_ASSIGN_OR_RETURN(opt.seed, FlagNumber(a, "--seed=", ParseUint64));
    } else if (a == "--no-quorum-cache") {
      opt.quorum_cache = false;
    } else if (a.rfind("--topology=", 0) == 0) {
      opt.topology = value("--topology=");
    } else if (a.rfind("--mode=", 0) == 0) {
      opt.mode = value("--mode=");
    } else if (a.rfind("--oracle=", 0) == 0) {
      opt.oracle = value("--oracle=");
    } else if (a.rfind("--strict=", 0) == 0) {
      opt.strict = value("--strict=");
    } else if (a.rfind("--replay=", 0) == 0) {
      opt.replay_path = value("--replay=");
    } else if (a.rfind("--out=", 0) == 0) {
      opt.out_path = value("--out=");
    } else if (a.rfind("--depth=", 0) == 0) {
      DYNVOTE_ASSIGN_OR_RETURN(opt.depth, FlagNumber(a, "--depth=", ParseInt));
    } else if (a.rfind("--schedules=", 0) == 0) {
      DYNVOTE_ASSIGN_OR_RETURN(
          opt.schedules, FlagNumber(a, "--schedules=", ParseInt));
    } else if (a.rfind("--swarm-depth=", 0) == 0) {
      DYNVOTE_ASSIGN_OR_RETURN(
          opt.swarm_depth, FlagNumber(a, "--swarm-depth=", ParseInt));
    } else if (a == "--no-memo") {
      opt.memoize = false;
    } else if (a == "--no-shrink") {
      opt.shrink = false;
    } else if (a == "--weaken-mutex") {
      opt.weaken_mutex = true;
    } else if (a.rfind("--check-jobs=", 0) == 0) {
      DYNVOTE_ASSIGN_OR_RETURN(
          opt.check_jobs, FlagNumber(a, "--check-jobs=", ParseInt));
      if (opt.check_jobs < 0) {
        return Status::InvalidArgument(
            "--check-jobs must be >= 0 (0 = all cores)");
      }
    } else if (a == "--no-por") {
      opt.por = false;
    } else if (a.rfind("--", 0) == 0) {
      return Status::InvalidArgument("unknown flag " + a);
    } else {
      opt.positional = a;
    }
  }
  return opt;
}

Result<NetworkConfig> LoadNetwork(const Options& opt) {
  if (!opt.network_path.empty()) return LoadNetworkConfig(opt.network_path);
  auto paper = MakePaperNetwork();
  if (!paper.ok()) return paper.status();
  NetworkConfig config;
  config.topology = paper->topology;
  config.profiles = paper->profiles;
  return config;
}

Result<SiteSet> ResolveSites(const NetworkConfig& network,
                             const std::string& csv) {
  if (csv.empty()) {
    return Status::InvalidArgument("--sites=... is required");
  }
  SiteSet placement;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    auto by_name = network.topology->FindSite(item);
    if (by_name.ok()) {
      placement.Add(*by_name);
      continue;
    }
    // Paper-style 1-based site numbers as a convenience.
    Result<int> number = ParseInt(item);
    if (number.ok() && *number >= 1 &&
        *number <= network.topology->num_sites()) {
      placement.Add(*number - 1);
      continue;
    }
    return Status::InvalidArgument("unknown site '" + item + "'");
  }
  if (placement.Empty()) {
    return Status::InvalidArgument("placement is empty");
  }
  return placement;
}

int Print(const Options& opt) {
  auto network = LoadNetwork(opt);
  if (!network.ok()) {
    std::cerr << network.status() << "\n";
    return 1;
  }
  std::cout << network->topology->ToString() << "\n"
            << "site characteristics:\n";
  TextTable table({"Site", "MTTF (d)", "HW %", "Restart (min)",
                   "HW repair (h)", "Maint", "Steady-state avail"});
  for (SiteId s = 0; s < network->topology->num_sites(); ++s) {
    const SiteProfile& p = network->profiles[s];
    std::string repair = TextTable::Fixed(p.hw_repair_const_hours, 0) +
                         "+exp(" +
                         TextTable::Fixed(p.hw_repair_exp_hours, 0) + ")";
    std::string maint =
        p.maintenance_interval_days > 0.0
            ? TextTable::Fixed(p.maintenance_hours, 0) + "h/" +
                  TextTable::Fixed(p.maintenance_interval_days, 0) + "d"
            : "-";
    table.AddRow({p.name, TextTable::Fixed(p.mttf_days, 1),
                  TextTable::Fixed(100 * p.hardware_fraction, 0),
                  TextTable::Fixed(p.restart_minutes, 0), repair, maint,
                  TextTable::Fixed6(SteadyStateAvailability(p))});
  }
  std::cout << table.ToString();
  return 0;
}

int Analyze(const Options& opt) {
  auto network = LoadNetwork(opt);
  if (!network.ok()) {
    std::cerr << network.status() << "\n";
    return 1;
  }
  auto placement = ResolveSites(*network, opt.sites);
  if (!placement.ok()) {
    std::cerr << placement.status() << "\n";
    return 1;
  }

  std::cout << "placement: " << placement->ToString() << "\n\n";

  auto vulnerability =
      AnalyzePartitionPoints(network->topology, *placement);
  if (!vulnerability.ok()) {
    std::cerr << vulnerability.status() << "\n";
    return 1;
  }
  std::cout << "partition points:";
  if (!vulnerability->partitionable()) std::cout << " none";
  for (SiteId s : vulnerability->gateway_cut_points) {
    std::cout << " gateway:" << network->topology->site(s).name;
  }
  for (RepeaterId r : vulnerability->repeater_cut_points) {
    for (const BridgeInfo& bridge : network->topology->bridges()) {
      if (!bridge.gateway_site.has_value() && bridge.repeater == r) {
        std::cout << " repeater:" << bridge.name;
      }
    }
  }
  std::cout << "\n";

  auto patterns =
      EnumeratePlacementPartitions(network->topology, *placement);
  if (patterns.ok()) {
    std::cout << "reachable partition patterns:\n";
    for (const auto& pattern : *patterns) {
      std::cout << " ";
      for (const SiteSet& group : pattern) std::cout << " " << group;
      std::cout << "\n";
    }
  }

  auto strict = AnalyticMcvAvailability(network->topology,
                                        network->profiles, *placement,
                                        TieBreak::kNone);
  auto lex = AnalyticMcvAvailability(network->topology, network->profiles,
                                     *placement, TieBreak::kLexicographic);
  if (strict.ok() && lex.ok()) {
    std::cout << "\nclosed-form static voting unavailability:\n"
              << "  strict majority:      "
              << TextTable::Fixed6(1.0 - *strict) << "\n"
              << "  with static tie rule: "
              << TextTable::Fixed6(1.0 - *lex) << "\n"
              << "(dynamic protocols are path-dependent: use 'simulate')\n";
  }
  return 0;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> items;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

/// Copies the serving-model flags into the experiment. On simulate and
/// repeat the model engages only when --arrival-rate was given; `serve`
/// forces it on (falling back to the library's default rate).
void ApplyServingFlags(const Options& opt, bool force,
                       ExperimentOptions* options) {
  if (!force && opt.arrival_rate <= 0.0) return;
  options->serving.enabled = true;
  if (opt.arrival_rate > 0.0) {
    options->serving.arrival_rate_per_day = opt.arrival_rate;
  }
  options->serving.service_time_ms = opt.service_time_ms;
  options->serving.msg_cost_ms = opt.msg_cost_ms;
  options->serving.write_fraction = opt.write_fraction;
}

/// A `--trace-out` path ending in .btrace selects the binary format.
bool WantsBinaryTrace(const std::string& path) {
  constexpr std::string_view kExt = ".btrace";
  return path.size() >= kExt.size() &&
         path.compare(path.size() - kExt.size(), kExt.size(), kExt) == 0;
}

/// Reports a trace sink that lost events (failed stream, failed page
/// pipeline) and returns 1; returns 0 when every event reached the sink.
/// The written-vs-offered reconciliation makes silent truncation — the
/// old failure mode — impossible to miss in scripts.
int CheckTraceSink(const TraceSink& sink, const std::string& path) {
  if (sink.ok()) return 0;
  std::cerr << "trace-out failed: " << sink.error() << " ("
            << sink.events_written() << " of " << sink.total_events()
            << " events reached " << path << ")\n";
  return 1;
}

/// Writes --trace-out (schema header + pre-rendered body, JSONL or
/// binary by extension) and/or --metrics-out after a run. Returns 0, or
/// 1 with the error already printed.
int WriteObsOutputs(const Options& opt, const std::string& trace_body,
                    const MetricsShard& metrics) {
  if (!opt.trace_out_path.empty()) {
    std::string contents;
    if (WantsBinaryTrace(opt.trace_out_path)) {
      contents = BinaryTraceHeader(opt.seed);
    } else {
      contents = TraceHeaderLine(opt.seed);
      contents.push_back('\n');
    }
    contents += trace_body;
    Status st = WriteFile(opt.trace_out_path, contents);
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "wrote " << opt.trace_out_path << "\n";
  }
  if (!opt.metrics_out_path.empty()) {
    Status st = WriteFile(opt.metrics_out_path, metrics.ToJson());
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "wrote " << opt.metrics_out_path << "\n";
  }
  return 0;
}

int Simulate(const Options& opt) {
  auto network = LoadNetwork(opt);
  if (!network.ok()) {
    std::cerr << network.status() << "\n";
    return 1;
  }
  auto placement = ResolveSites(*network, opt.sites);
  if (!placement.ok()) {
    std::cerr << placement.status() << "\n";
    return 1;
  }

  ExperimentSpec spec;
  spec.topology = network->topology;
  spec.profiles = network->profiles;
  spec.repeater_profiles = network->repeater_profiles;
  spec.options.warmup = Days(360);
  spec.options.num_batches = 20;
  spec.options.batch_length = Years(opt.years / 20.0);
  spec.options.access.rate_per_day = opt.rate;
  spec.options.seed = opt.seed;
  spec.options.quorum_cache = opt.quorum_cache;
  ApplyServingFlags(opt, /*force=*/false, &spec.options);

  // Observability is opt-in per flag; with neither flag spec.obs stays
  // null and instrumentation costs one never-taken branch per site.
  // JSONL buffers in memory and lands via WriteObsOutputs; binary
  // streams pages straight to the file through a background writer
  // thread, so the simulation never waits on disk.
  const bool binary_trace = WantsBinaryTrace(opt.trace_out_path);
  std::ostringstream trace_out;
  JsonlTraceSink jsonl_sink(&trace_out);
  std::ofstream btrace_out;
  std::optional<StreamPageSink> btrace_pages;
  std::optional<AsyncTraceSink> btrace_async;
  std::optional<BinaryTraceSink> btrace_sink;
  MetricsShard metrics;
  ObsContext obs;
  if (!opt.trace_out_path.empty()) {
    if (binary_trace) {
      btrace_out.open(opt.trace_out_path,
                      std::ios::binary | std::ios::trunc);
      if (!btrace_out) {
        std::cerr << "cannot open '" << opt.trace_out_path
                  << "' for write\n";
        return 1;
      }
      std::string header = BinaryTraceHeader(opt.seed);
      btrace_out.write(header.data(),
                       static_cast<std::streamsize>(header.size()));
      btrace_pages.emplace(&btrace_out);
      btrace_async.emplace(&*btrace_pages);
      btrace_sink.emplace(&*btrace_async);
      obs.sink = &*btrace_sink;
    } else {
      obs.sink = &jsonl_sink;
    }
  }
  if (!opt.metrics_out_path.empty()) obs.metrics = &metrics;
  if (obs.sink != nullptr || obs.metrics != nullptr) spec.obs = &obs;

  // RunAvailabilityExperiment picks the engine: untraced runs of the
  // paper policies go to the batched engine, everything else (including
  // --no-quorum-cache) to the solo reference engine, with identical rows.
  std::vector<std::unique_ptr<ConsistencyProtocol>> protocols;
  for (const std::string& policy : SplitCsv(opt.policies)) {
    auto p = MakeProtocolByName(policy, network->topology, *placement);
    if (!p.ok()) {
      std::cerr << p.status() << "\n";
      return 1;
    }
    protocols.push_back(p.MoveValue());
  }
  auto results = RunAvailabilityExperiment(spec, std::move(protocols));
  if (!results.ok()) {
    std::cerr << results.status() << "\n";
    return 1;
  }

  TextTable table({"Policy", "Unavailability", "95% CI ±",
                   "Mean outage (d)", "Outages", "Dual majorities"});
  std::vector<LabeledResult> rows;
  for (const PolicyResult& r : *results) {
    table.AddRow({r.name, TextTable::Fixed6(r.unavailability),
                  TextTable::Fixed6(r.stats.ci95_halfwidth),
                  TextTable::Fixed6(r.num_unavailable_periods == 0
                                        ? -1.0
                                        : r.mean_unavailable_duration),
                  std::to_string(r.num_unavailable_periods),
                  std::to_string(r.dual_majority_instants)});
    rows.push_back(LabeledResult{opt.sites, r});
  }
  std::cout << table.ToString();
  if (!opt.csv_path.empty()) {
    Status st = WriteFile(opt.csv_path, ResultsToCsv(rows));
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "wrote " << opt.csv_path << "\n";
  }
  if (obs.sink != nullptr) {
    // Drain the async writer / flush the stream, then reconcile events
    // offered against events written — a failed sink is a hard error.
    obs.sink->Flush();
    if (int rc = CheckTraceSink(*obs.sink, opt.trace_out_path); rc != 0) {
      return rc;
    }
  }
  if (binary_trace) {
    btrace_out.close();
    if (!btrace_out) {
      std::cerr << "short write to '" << opt.trace_out_path << "'\n";
      return 1;
    }
    std::cout << "wrote " << opt.trace_out_path << "\n";
  }
  Options remaining = opt;
  if (binary_trace) remaining.trace_out_path.clear();  // already on disk
  return WriteObsOutputs(remaining, trace_out.str(), metrics);
}

int Repeat(const Options& opt) {
  auto network = LoadNetwork(opt);
  if (!network.ok()) {
    std::cerr << network.status() << "\n";
    return 1;
  }
  auto placement = ResolveSites(*network, opt.sites);
  if (!placement.ok()) {
    std::cerr << placement.status() << "\n";
    return 1;
  }

  ExperimentSpec spec;
  spec.topology = network->topology;
  spec.profiles = network->profiles;
  spec.repeater_profiles = network->repeater_profiles;
  spec.options.warmup = Days(360);
  spec.options.num_batches = 20;
  spec.options.batch_length = Years(opt.years / 20.0);
  spec.options.access.rate_per_day = opt.rate;
  spec.options.seed = opt.seed;
  spec.options.quorum_cache = opt.quorum_cache;
  ApplyServingFlags(opt, /*force=*/false, &spec.options);

  // Command line wins; the network file's `experiment` declaration
  // supplies defaults.
  ReplicationOptions replication;
  replication.replications = opt.reps >= 1 ? opt.reps : network->replications;
  replication.jobs = opt.jobs >= 0 ? opt.jobs : network->jobs;
  replication.collect_traces = !opt.trace_out_path.empty();
  replication.trace_format = WantsBinaryTrace(opt.trace_out_path)
                                 ? TraceFormat::kBinary
                                 : TraceFormat::kJsonl;
  replication.collect_metrics = !opt.metrics_out_path.empty();
  replication.objects = opt.objects;

  std::vector<std::string> policies = SplitCsv(opt.policies);
  std::shared_ptr<const Topology> topology = network->topology;
  SiteSet sites = *placement;
  ProtocolSetFactory factory =
      [topology, sites, policies]()
      -> Result<std::vector<std::unique_ptr<ConsistencyProtocol>>> {
    std::vector<std::unique_ptr<ConsistencyProtocol>> protocols;
    for (const std::string& policy : policies) {
      auto p = MakeProtocolByName(policy, topology, sites);
      if (!p.ok()) return p.status();
      protocols.push_back(p.MoveValue());
    }
    return protocols;
  };

  auto results = RunReplicatedExperiment(spec, factory, replication);
  if (!results.ok()) {
    std::cerr << results.status() << "\n";
    return 1;
  }

  std::cout << replication.replications << " replication(s), master seed "
            << opt.seed << "\n";
  TextTable table({"Policy", "Unavailability", "95% CI ±", "Min", "Max",
                   "Outage reps", "First outage (d)", "Censored"});
  for (const AggregatePolicyResult& agg : results->aggregate) {
    const ReplicationSummary& u = agg.unavailability;
    const ReplicationSummary& f = agg.time_to_first_outage;
    table.AddRow({agg.name, TextTable::Fixed6(u.mean),
                  TextTable::Fixed6(u.ci95_halfwidth),
                  TextTable::Fixed6(u.min), TextTable::Fixed6(u.max),
                  std::to_string(agg.replications_with_outages) + "/" +
                      std::to_string(agg.replications),
                  f.num_samples > 0 ? TextTable::Fixed(f.mean, 1) : "-",
                  std::to_string(f.num_censored)});
  }
  std::cout << table.ToString();
  if (!opt.json_path.empty()) {
    Status st = WriteFile(opt.json_path,
                          ReplicatedResultsToJson(opt.sites, *results));
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "wrote " << opt.json_path << "\n";
  }
  // Per-replication bodies concatenate in replication order, so the
  // trace file is byte-identical for any --jobs.
  std::string trace_body;
  for (const std::string& body : results->traces) trace_body += body;
  return WriteObsOutputs(opt, trace_body, results->metrics);
}

/// Counter lookup tolerating the absent-when-zero export convention.
std::uint64_t ServingCounter(const MetricsShard& metrics,
                             const std::string& key) {
  auto it = metrics.counters().find(key);
  return it == metrics.counters().end() ? 0 : it->second;
}

/// Sums one phase's control messages for a protocol (file copies are
/// data plane and excluded, matching MessageCounter::ControlTotal).
std::uint64_t ServingPhaseMessages(const MetricsShard& metrics,
                                   const std::string& protocol,
                                   const char* phase) {
  std::uint64_t total = 0;
  for (int k = 0; k < kNumMessageKinds; ++k) {
    auto kind = static_cast<MessageKind>(k);
    if (kind == MessageKind::kFileCopy) continue;
    total += ServingCounter(
        metrics, MetricKey("serving_messages",
                           "kind=" + MessageKindName(kind) + ",phase=" +
                               phase + ",protocol=" + protocol));
  }
  return total;
}

void AppendJsonDouble(double value, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out->append(buf);
}

/// Runs the serving model (docs/serving.md) over the requested paper
/// placements and prints a per-protocol messages-per-access and latency-
/// percentile table per configuration. All figures come from the merged
/// metrics shard, which folds in replication order — so the report (and
/// the --json document) is byte-identical for any --jobs value.
int Serve(const Options& opt) {
  if (!opt.network_path.empty()) {
    std::cerr << "serve runs the paper's placements; --network is not "
                 "supported\n";
    return kExitUsage;
  }
  if (opt.config.empty()) {
    std::cerr << "--config needs at least one placement letter (A-H)\n";
    return kExitUsage;
  }
  std::vector<std::string> policies = SplitCsv(opt.policies);

  ExperimentOptions options;
  options.warmup = Days(360);
  options.num_batches = 20;
  // The open loop serves ~1000 accesses per simulated day, so a short
  // horizon already gives tight percentiles; --years overrides.
  const double years = opt.years_set ? opt.years : 2.0;
  options.batch_length = Years(years / 20.0);
  options.seed = opt.seed;
  options.quorum_cache = opt.quorum_cache;
  ApplyServingFlags(opt, /*force=*/true, &options);

  ReplicationOptions replication;
  replication.replications = opt.reps >= 1 ? opt.reps : 1;
  replication.jobs = opt.jobs >= 0 ? opt.jobs : 1;
  replication.collect_metrics = true;

  std::string json;
  json.append("{\n  \"schema\": \"");
  json.append(kServingSchema);
  json.append("\",\n  \"arrival_rate_per_day\": ");
  AppendJsonDouble(options.serving.arrival_rate_per_day, &json);
  json.append(",\n  \"service_time_ms\": ");
  AppendJsonDouble(options.serving.service_time_ms, &json);
  json.append(",\n  \"msg_cost_ms\": ");
  AppendJsonDouble(options.serving.msg_cost_ms, &json);
  json.append(",\n  \"write_fraction\": ");
  AppendJsonDouble(options.serving.write_fraction, &json);
  json.append(",\n  \"years\": ");
  AppendJsonDouble(years, &json);
  json.append(",\n  \"seed\": " + std::to_string(opt.seed));
  json.append(",\n  \"replications\": " +
              std::to_string(replication.replications));
  json.append(",\n  \"configs\": [");

  bool first_config = true;
  for (char config : opt.config) {
    auto results =
        RunReplicatedPaperExperiment(config, policies, options, replication);
    if (!results.ok()) {
      std::cerr << results.status() << "\n";
      return 1;
    }
    const MetricsShard& metrics = results->metrics;

    std::cout << "configuration " << config << ": "
              << TextTable::Fixed(options.serving.arrival_rate_per_day, 0)
              << " arrivals/day over "
              << TextTable::Fixed(years * replication.replications, 1)
              << " measured years\n";
    TextTable table({"Policy", "Served", "Rejected", "Grant %", "Msg/acc",
                     "Refresh/acc", "p50 ms", "p99 ms", "p999 ms", "MaxQ"});

    json.append(first_config ? "\n    {" : ",\n    {");
    first_config = false;
    json.append("\"config\": \"");
    json.push_back(config);
    json.append("\", \"policies\": [");

    bool first_policy = true;
    for (const std::string& name : policies) {
      const std::string label = "protocol=" + name;
      const std::uint64_t arrivals =
          ServingCounter(metrics, MetricKey("serving_arrivals", label));
      const std::uint64_t rejected =
          ServingCounter(metrics, MetricKey("serving_rejected", label));
      const std::uint64_t granted =
          ServingCounter(metrics, MetricKey("serving_granted", label));
      const std::uint64_t served = arrivals - rejected;
      const std::uint64_t access_msgs =
          ServingPhaseMessages(metrics, name, "access");
      const std::uint64_t refresh_msgs =
          ServingPhaseMessages(metrics, name, "refresh");
      HistogramData latency;
      auto hist = metrics.histograms().find(
          MetricKey("serving_latency_ms", label));
      if (hist != metrics.histograms().end()) latency = hist->second;
      double depth = 0.0;
      auto gauge = metrics.gauges().find(
          MetricKey("serving_queue_depth_max", label));
      if (gauge != metrics.gauges().end()) depth = gauge->second;

      const double denom = served > 0 ? static_cast<double>(served) : 1.0;
      const double msgs_per_access = static_cast<double>(access_msgs) / denom;
      const double refresh_per_access =
          static_cast<double>(refresh_msgs) / denom;
      const double grant_pct =
          served > 0 ? 100.0 * static_cast<double>(granted) / denom : 0.0;
      const double p50 = latency.Quantile(0.50);
      const double p99 = latency.Quantile(0.99);
      const double p999 = latency.Quantile(0.999);

      table.AddRow({name, std::to_string(served), std::to_string(rejected),
                    TextTable::Fixed(grant_pct, 2),
                    TextTable::Fixed(msgs_per_access, 2),
                    TextTable::Fixed(refresh_per_access, 2),
                    TextTable::Fixed(p50, 3), TextTable::Fixed(p99, 3),
                    TextTable::Fixed(p999, 3),
                    TextTable::Fixed(depth, 0)});

      json.append(first_policy ? "\n      {" : ",\n      {");
      first_policy = false;
      json.append("\"name\": \"" + name + "\"");
      json.append(", \"served\": " + std::to_string(served));
      json.append(", \"rejected\": " + std::to_string(rejected));
      json.append(", \"granted\": " + std::to_string(granted));
      json.append(", \"denied\": " + std::to_string(served - granted));
      json.append(", \"access_messages\": " + std::to_string(access_msgs));
      json.append(", \"refresh_messages\": " + std::to_string(refresh_msgs));
      json.append(", \"msgs_per_access\": ");
      AppendJsonDouble(msgs_per_access, &json);
      json.append(", \"latency_ms\": {\"p50\": ");
      AppendJsonDouble(p50, &json);
      json.append(", \"p90\": ");
      AppendJsonDouble(latency.Quantile(0.90), &json);
      json.append(", \"p99\": ");
      AppendJsonDouble(p99, &json);
      json.append(", \"p999\": ");
      AppendJsonDouble(p999, &json);
      json.append(", \"max\": ");
      AppendJsonDouble(latency.max, &json);
      json.append("}, \"queue_depth_max\": ");
      AppendJsonDouble(depth, &json);
      json.append("}");
    }
    json.append(first_policy ? "]}" : "\n    ]}");
    std::cout << table.ToString();
    if (config != opt.config.back()) std::cout << "\n";
  }
  json.append("\n  ]\n}\n");

  if (!opt.json_path.empty()) {
    Status st = WriteFile(opt.json_path, json);
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "wrote " << opt.json_path << "\n";
  }
  return 0;
}

int RunScenario(const Options& opt) {
  if (opt.positional.empty()) {
    std::cerr << "scenario needs a script path\n";
    return 1;
  }
  auto network = LoadNetwork(opt);
  if (!network.ok()) {
    std::cerr << network.status() << "\n";
    return 1;
  }
  auto placement = ResolveSites(*network, opt.sites);
  if (!placement.ok()) {
    std::cerr << placement.status() << "\n";
    return 1;
  }
  std::ifstream in(opt.positional);
  if (!in) {
    std::cerr << "cannot read " << opt.positional << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  auto scenario = Scenario::Parse(network->topology, buffer.str());
  if (!scenario.ok()) {
    std::cerr << scenario.status() << "\n";
    return 1;
  }
  auto cluster =
      KvCluster::Make(network->topology, *placement, opt.protocol);
  if (!cluster.ok()) {
    std::cerr << cluster.status() << "\n";
    return 1;
  }
  std::string transcript;
  Status st = scenario->Run(cluster->get(), &transcript);
  std::cout << transcript;
  if (!st.ok()) {
    std::cout << "SCENARIO FAILED: " << st << "\n";
    return 1;
  }
  std::cout << "scenario passed.\n";
  return 0;
}

int TraceSummaryCommand(const Options& opt) {
  if (opt.positional.empty()) {
    std::cerr << "trace-summary needs a trace file path\n";
    return 1;
  }
  std::ifstream in(opt.positional, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << opt.positional << "\n";
    return 1;
  }
  TraceSummary summary = SummarizeTrace(in);
  if (!summary.schema.empty() && summary.schema != kTraceSchema &&
      summary.schema != kBinaryTraceSchema) {
    std::cerr << "unsupported trace schema '" << summary.schema
              << "' (expected " << kTraceSchema << " or "
              << kBinaryTraceSchema << ")\n";
    return 1;
  }
  if (summary.schema.empty() && summary.decode_error.empty()) {
    std::cerr << "warning: no schema header line; assuming " << kTraceSchema
              << "\n";
  }
  std::cout << summary.ToString();
  return 0;
}

/// Decodes a dynvote-btrace-v1 file to dynvote-trace-v1 JSONL,
/// byte-identical to a direct JSONL run of the same events.
int TraceConvertCommand(const Options& opt) {
  if (opt.positional.empty()) {
    std::cerr << "trace-convert needs a binary trace file path\n";
    return 1;
  }
  std::ifstream in(opt.positional, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << opt.positional << "\n";
    return 1;
  }
  std::ofstream file_out;
  if (!opt.out_path.empty()) {
    file_out.open(opt.out_path, std::ios::binary | std::ios::trunc);
    if (!file_out) {
      std::cerr << "cannot open '" << opt.out_path << "' for write\n";
      return 1;
    }
  }
  std::ostream& out = opt.out_path.empty() ? std::cout : file_out;
  auto events = ConvertBinaryTraceToJsonl(in, out);
  if (!events.ok()) {
    std::cerr << events.status() << "\n";
    return 1;
  }
  if (!opt.out_path.empty()) {
    file_out.close();
    if (!file_out) {
      std::cerr << "short write to '" << opt.out_path << "'\n";
      return 1;
    }
    std::cout << "wrote " << opt.out_path << " (" << *events
              << " events)\n";
  }
  return 0;
}

/// Replays a counterexample file and reports whether it reproduces.
int ReplayCounterExampleFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto ce = check::ParseCounterExampleJson(buffer.str());
  if (!ce.ok()) {
    std::cerr << ce.status() << "\n";
    return 1;
  }
  // Reject an unknown universe up front as a usage error (exit 2), not a
  // failed reproduction: the file names a world this binary does not
  // have, so replaying it was never meaningful.
  if (!check::MakeCheckTopology(ce->topology).ok()) {
    std::cerr << "unknown check universe '" << ce->topology << "' in " << path
              << "\nknown universes:";
    for (const std::string& name : check::CheckTopologyNames()) {
      std::cerr << " " << name;
    }
    std::cerr << "\n";
    return kExitUsage;
  }
  std::cout << "replaying " << ce->protocol << " on " << ce->topology << ": "
            << check::ScheduleToString(ce->schedule) << "\n";
  Status st = check::ReplayCounterExample(*ce);
  if (!st.ok()) {
    std::cerr << "NOT REPRODUCED: " << st << "\n";
    return 1;
  }
  std::cout << "reproduced: '" << ce->violation.invariant << "' at step "
            << ce->violation.step << " (" << ce->violation.detail << ")\n";
  return 0;
}

int Check(const Options& opt) {
  if (!opt.replay_path.empty()) {
    return ReplayCounterExampleFile(opt.replay_path);
  }

  check::CheckOptions options;
  // Registry names are uppercase; accept `--protocol odv` as a courtesy.
  options.protocol = opt.protocol;
  for (char& c : options.protocol) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  options.topology = opt.topology;
  options.depth = opt.depth;
  options.seed = opt.seed;
  options.swarm_schedules = opt.schedules;
  options.swarm_depth = opt.swarm_depth;
  options.memoize = opt.memoize;
  options.shrink = opt.shrink;
  options.jobs = opt.check_jobs;
  options.por = opt.por;
  if (opt.mode == "exhaustive") {
    options.mode = check::CheckMode::kExhaustive;
  } else if (opt.mode == "swarm") {
    options.mode = check::CheckMode::kSwarm;
  } else {
    std::cerr << "unknown --mode '" << opt.mode
              << "' (expected exhaustive or swarm)\n";
    return kExitUsage;
  }
  if (opt.weaken_mutex) options.policy.max_granted_groups = 0;
  if (opt.strict == "on") {
    options.policy.strict = true;
  } else if (opt.strict == "off") {
    options.policy.strict = false;
  } else if (opt.strict == "auto") {
    // Strict iff the protocol has no documented partition hazard; probe
    // an instance to ask.
    auto topology = check::MakeCheckTopology(options.topology);
    if (!topology.ok()) {
      std::cerr << topology.status() << "\n";
      return 1;
    }
    auto probe = MakeProtocolByName(options.protocol, *topology,
                                    (*topology)->AllSites());
    if (!probe.ok()) {
      std::cerr << probe.status() << "\n";
      return 1;
    }
    options.policy.strict = (*probe)->partition_safe();
  } else {
    std::cerr << "unknown --strict '" << opt.strict
              << "' (expected auto, on or off)\n";
    return kExitUsage;
  }
  auto oracle = check::ParseDifferentialOracle(opt.oracle);
  if (!oracle.ok()) {
    std::cerr << oracle.status() << "\n";
    return kExitUsage;
  }
  options.policy.oracle = *oracle;

  auto report = check::RunCheck(options);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }

  std::cout << "protocol " << options.protocol << " on " << opt.topology
            << ", " << (options.policy.strict ? "strict" : "loose") << ", "
            << opt.mode;
  if (options.mode == check::CheckMode::kExhaustive) {
    std::cout << " to depth " << opt.depth
              << (report->memoized ? " (memoized" : " (no state merging")
              << (report->por_active ? ", por)" : ")");
  } else {
    std::cout << ", " << report->schedules_run << " schedule(s) of "
              << opt.swarm_depth << " action(s), seed " << opt.seed;
  }
  std::cout << "\n";
  if (options.mode == check::CheckMode::kExhaustive) {
    std::cout << "states visited:     " << report->states_visited << "\n"
              << "unpruned sequences: ";
    // The count saturates at uint64 max rather than wrapping; say so
    // instead of printing the cap as if it were exact.
    if (report->unpruned_sequences == ~std::uint64_t{0}) {
      std::cout << "saturated (>= " << report->unpruned_sequences << ")\n";
    } else {
      std::cout << report->unpruned_sequences << "\n";
    }
    if (report->memoized) {
      // Order-independent digest of the visited-state *set*: CI compares
      // it across --check-jobs values and --no-por to prove neither
      // changes which states were reached.
      char digest[17];
      std::snprintf(digest, sizeof(digest), "%016llx",
                    static_cast<unsigned long long>(report->visited_digest));
      std::cout << "visited digest:     " << digest << "\n";
    }
    std::cout << "closed at depth:    ";
    if (report->closed_at_depth > 0) {
      std::cout << report->closed_at_depth << "\n";
    } else {
      std::cout << "open\n";
    }
  }
  std::cout << "transitions:        " << report->transitions << "\n"
            << "commits / reads:    " << report->commits << " / "
            << report->reads_checked << "\n";

  if (!report->counterexample.has_value()) {
    std::cout << "no invariant violations.\n";
    return 0;
  }
  const check::CounterExample& ce = *report->counterexample;
  std::cout << "VIOLATION of '" << ce.violation.invariant << "' at step "
            << ce.violation.step << ": " << ce.violation.detail << "\n"
            << (options.shrink ? "minimal schedule: " : "schedule: ")
            << check::ScheduleToString(ce.schedule) << "\n";
  std::string json = check::CounterExampleToJson(ce);
  if (!opt.out_path.empty()) {
    Status st = WriteFile(opt.out_path, json);
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "wrote " << opt.out_path << "\n";
  } else {
    std::cout << json;
  }
  return 1;
}

int Main(int argc, char** argv) {
  auto opt = Parse(argc, argv);
  if (!opt.ok()) {
    std::cerr << opt.status() << "\n";
    return Usage();
  }
  if (opt->command == "--version" || opt->command == "version") {
    return Version();
  }
  if (opt->command == "print") return Print(*opt);
  if (opt->command == "analyze") return Analyze(*opt);
  if (opt->command == "simulate") return Simulate(*opt);
  if (opt->command == "repeat") return Repeat(*opt);
  if (opt->command == "serve") return Serve(*opt);
  if (opt->command == "scenario") return RunScenario(*opt);
  if (opt->command == "trace-summary") return TraceSummaryCommand(*opt);
  if (opt->command == "trace-convert") return TraceConvertCommand(*opt);
  if (opt->command == "check") return Check(*opt);
  return UnknownCommand(opt->command);
}

}  // namespace
}  // namespace cli
}  // namespace dynvote

int main(int argc, char** argv) { return dynvote::cli::Main(argc, argv); }
