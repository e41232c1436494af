// dynvote — command-line front end to the library. kFlags below declares
// every flag, which subcommands accept it and its help line; run the tool
// without arguments for the generated usage. docs/observability.md,
// docs/serving.md and docs/model_checking.md describe the outputs.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
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
#include "model/open_loop.h"
#include "model/replicated_experiment.h"
#include "model/sample_path.h"
#include "model/site_profile.h"
#include "net/partition_analysis.h"
#include "obs/async_writer.h"
#include "obs/binary_trace.h"
#include "obs/context.h"
#include "obs/schemas.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "stats/table.h"
#include "util/append.h"
#include "util/parse_number.h"
#include "util/thread_pool.h"
#include "version_schemas.h"

namespace dynvote {
namespace cli {
namespace {

struct Options {
  std::string network_path;  // empty = paper network
  std::string sites;         // comma-separated
  std::string policies = "MCV,DV,LDV,ODV,TDV,OTDV";
  std::string protocol = "LDV";
  std::string csv_path;
  std::string json_path;
  std::string trace_out_path;    // simulate/repeat: event trace
  std::string metrics_out_path;  // simulate/repeat: metrics JSON
  std::string positional;  // the command's argument (Command::argument)
  // 0 = the command's default: 100 years, or 2 on serve.
  double years = 0.0;
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
  bool no_quorum_cache = false;
  // repeat: -1 = take the value from the network file's `experiment`
  // declaration (default 1).
  int reps = -1;
  int jobs = -1;
  // repeat: replications per batched-engine call (runs the group's
  // objects back to back). Never changes results.
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
  bool no_memo = false;
  bool no_shrink = false;
  bool weaken_mutex = false;
  // check: replay fan-out width and partial-order reduction. Neither
  // ever changes a verdict, a count, or the counterexample.
  int check_jobs = 1;
  bool no_por = false;
};

// Exit codes: 0 success, 1 runtime failure, 2 bad flags / usage,
// 3 unknown subcommand (distinct so scripts can tell a typo'd command
// from a malformed invocation of a real one).
constexpr int kExitUsage = 2;
constexpr int kExitUnknownCommand = 3;

// One bit per subcommand; a flag lists the subcommands that accept it.
enum CommandBit : unsigned {
  kPrint = 1u << 0,
  kAnalyze = 1u << 1,
  kSimulate = 1u << 2,
  kRepeat = 1u << 3,
  kServe = 1u << 4,
  kScenario = 1u << 5,
  kTraceConvert = 1u << 6,
  kCheck = 1u << 7,
  kRun = kSimulate | kRepeat,  // the commands that run an experiment
};

/// The range of a numeric flag's value: the range the library accepts
/// where it reads the setting. The bound is checked on every run that
/// passes the flag, also one that never reads it, so `--rate=0` next
/// to `--arrival-rate` and `check --mode=swarm --depth=0` are rejected.
/// kWorkers is a thread count: 0 (all cores) to kMaxWorkerThreads.
enum Bound { kAny, kNonNegative, kPositive, kAtLeastOne, kFraction, kWorkers };

/// The bound as text when `value` lies outside it, else null. NaN lies
/// outside every bound but kAny.
const char* OutOfBound(Bound bound, double value) {
  static_assert(kMaxWorkerThreads == 1024, "kWorkers' text names the cap");
  if (bound == kWorkers && !(value >= 0.0 && value <= kMaxWorkerThreads)) {
    return "in [0, 1024]";
  }
  if (bound == kNonNegative && !(value >= 0.0)) return ">= 0";
  if (bound == kPositive && !(value > 0.0)) return "> 0";
  if (bound == kAtLeastOne && !(value >= 1.0)) return ">= 1";
  if (bound == kFraction && !(value >= 0.0 && value <= 1.0)) {
    return "in [0, 1]";
  }
  return nullptr;
}

/// The Options field a flag sets. A bool field makes a flag that takes
/// no value and sets the field to true.
using Field =
    std::variant<std::string Options::*, int Options::*, double Options::*,
                 std::uint64_t Options::*, bool Options::*>;

struct Flag {
  const char* name;   // without the leading "--"
  unsigned commands;  // CommandBit mask of the subcommands that accept it
  Field field;
  // The value's placeholder in the usage text, null when the flag takes
  // no value; "a|b" allows only a or b.
  const char* value;
  const char* help;
  Bound bound = kAny;
};

constexpr Flag kFlags[] = {
    {"network", kPrint | kAnalyze | kRun | kScenario, &Options::network_path,
     "FILE", "network description (default: the paper's)"},
    {"sites", kAnalyze | kRun | kScenario, &Options::sites, "a,b,c",
     "copy placement (names, or 1-8 on the paper network)"},
    {"policies", kRun | kServe, &Options::policies, "P,Q",
     "protocols to compare"},
    {"protocol", kScenario | kCheck, &Options::protocol, "P",
     "protocol to run"},
    {"years", kRun | kServe, &Options::years, "N",
     "simulated years (default 100; serve: 2)", kPositive},
    {"rate", kRun, &Options::rate, "R", "closed-loop accesses per day",
     kPositive},
    {"seed", kRun | kServe | kCheck, &Options::seed, "N", "master seed"},
    {"csv", kSimulate, &Options::csv_path, "PATH",
     "write the result rows as CSV"},
    {"reps", kRepeat | kServe, &Options::reps, "N",
     "independent replications", kAtLeastOne},
    {"jobs", kRepeat | kServe, &Options::jobs, "M",
     "worker threads (0 = all cores; never changes results)", kWorkers},
    {"objects", kRepeat, &Options::objects, "N",
     "replications per engine call (never changes results)", kAtLeastOne},
    {"json", kRepeat | kServe, &Options::json_path, "PATH",
     "write the results JSON (serve: the serving report)"},
    {"trace-out", kRun, &Options::trace_out_path, "FILE",
     "write the event trace (.btrace: binary, else JSONL)"},
    {"metrics-out", kRun, &Options::metrics_out_path, "FILE",
     "write the metrics JSON"},
    {"no-quorum-cache", kRun | kServe, &Options::no_quorum_cache, nullptr,
     "disable grant-decision memos (results are identical)"},
    {"arrival-rate", kRun | kServe, &Options::arrival_rate, "R",
     "open-loop arrivals per day (turns the serving model on)", kPositive},
    {"service-time", kRun | kServe, &Options::service_time_ms, "MS",
     "serving: per-request base service time", kNonNegative},
    {"msg-cost", kRun | kServe, &Options::msg_cost_ms, "MS",
     "serving: cost per control message", kNonNegative},
    {"write-fraction", kRun | kServe, &Options::write_fraction, "F",
     "serving: share of arrivals that write", kFraction},
    {"config", kServe, &Options::config, "A..H",
     "paper placements to report (default all)"},
    {"topology", kCheck, &Options::topology, "T",
     "check universe (single2..single8, pairs, section3)"},
    {"mode", kCheck, &Options::mode, "exhaustive|swarm",
     "how schedules are explored (default exhaustive)"},
    {"depth", kCheck, &Options::depth, "N",
     "exhaustive: maximum schedule length", kAtLeastOne},
    {"schedules", kCheck, &Options::schedules, "N",
     "swarm: number of random schedules", kAtLeastOne},
    {"swarm-depth", kCheck, &Options::swarm_depth, "N",
     "swarm: actions per schedule", kAtLeastOne},
    {"oracle", kCheck, &Options::oracle, "O",
     "none, quorum_cache, jm_equivalence or lex_pair"},
    {"strict", kCheck, &Options::strict, "auto|on|off",
     "strict invariants (auto: iff the protocol is partition-safe)"},
    {"weaken-mutex", kCheck, &Options::weaken_mutex, nullptr,
     "test hook: any grant at all violates"},
    {"no-memo", kCheck, &Options::no_memo, nullptr,
     "disable canonical-state merging"},
    {"no-shrink", kCheck, &Options::no_shrink, nullptr,
     "keep the unshrunk failing schedule"},
    {"check-jobs", kCheck, &Options::check_jobs, "M",
     "replay fan-out threads (0 = all cores; same results)", kWorkers},
    {"no-por", kCheck, &Options::no_por, nullptr,
     "disable partial-order reduction (same state set)"},
    {"replay", kCheck, &Options::replay_path, "FILE",
     "replay a counterexample file instead of exploring"},
    {"out", kTraceConvert | kCheck, &Options::out_path, "FILE",
     "converted JSONL (default stdout) or counterexample JSON"},
};

bool TakesValue(const Flag& flag) {
  return !std::holds_alternative<bool Options::*>(flag.field);
}

Result<int> ParseNumber(const std::string& text, int*) {
  return ParseInt(text);
}
Result<double> ParseNumber(const std::string& text, double*) {
  return ParseDouble(text);
}
Result<std::uint64_t> ParseNumber(const std::string& text, std::uint64_t*) {
  return ParseUint64(text);
}

/// Stores `value` into `flag`'s field: numbers parsed whole and checked
/// against the flag's bound, choices checked against the placeholder's
/// list; errors name the flag.
Status Set(const Flag& flag, const std::string& value, Options* opt) {
  const std::string name = std::string("--") + flag.name;
  return std::visit(
      [&](auto field) {
        auto& out = opt->*field;
        using T = std::remove_reference_t<decltype(out)>;
        if constexpr (std::is_same_v<T, bool>) {
          out = true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          const std::string choices = std::string("|") + flag.value + "|";
          if (std::string_view(flag.value).find('|') != std::string::npos &&
              choices.find("|" + value + "|") == std::string::npos) {
            return Status::InvalidArgument(name + ": must be one of " +
                                           flag.value + ", got '" + value +
                                           "'");
          }
          out = value;
        } else {
          Result<T> number = ParseNumber(value, &out);
          if (!number.ok()) {
            return Status::InvalidArgument(name + ": " +
                                           number.status().message());
          }
          if (const char* bound =
                  OutOfBound(flag.bound, static_cast<double>(*number))) {
            return Status::InvalidArgument(name + ": must be " + bound +
                                           ", got '" + value + "'");
          }
          out = *number;
        }
        return Status::OK();
      },
      flag.field);
}

struct Command {
  const char* name;
  unsigned bit;          // 0: accepts no flag
  const char* argument;  // its one, required argument; null for none
  int (*run)(const Options&);
};

/// Parses `args` (the arguments after the subcommand) against kFlags,
/// accepting only the flags that list `command` and exactly the
/// positional arguments it takes. `--flag value` folds into
/// `--flag=value` unless the flag takes no value.
Result<Options> Parse(const Command& command,
                      const std::vector<std::string>& args) {
  Options opt;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!arg.starts_with("--")) {
      if (command.argument == nullptr || !opt.positional.empty()) {
        return Status::InvalidArgument("unexpected argument '" + arg +
                                       "' for " + command.name);
      }
      opt.positional = arg;
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string_view key = std::string_view(name).substr(2);
    const Flag* flag =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [key](const Flag& f) { return key == f.name; });
    if (flag == std::end(kFlags)) {
      return Status::InvalidArgument("unknown flag " + name);
    }
    if ((flag->commands & command.bit) == 0) {
      return Status::InvalidArgument(std::string(command.name) +
                                     " does not accept " + name);
    }
    std::string value;
    if (eq != std::string::npos) {
      if (!TakesValue(*flag)) {
        return Status::InvalidArgument(name + " takes no value");
      }
      value = arg.substr(eq + 1);
    } else if (TakesValue(*flag)) {
      if (i + 1 == args.size() || args[i + 1].starts_with("--")) {
        return Status::InvalidArgument(name + " needs a value");
      }
      value = args[++i];
    }
    DYNVOTE_RETURN_NOT_OK(Set(*flag, value, &opt));
  }
  if (command.argument != nullptr && opt.positional.empty()) {
    return Status::InvalidArgument(std::string(command.name) + " needs " +
                                   command.argument);
  }
  return opt;
}

/// Splits a comma-separated list, dropping empty items ("a,,b," -> a, b).
std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> items;
  std::istringstream in(csv);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
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
  for (const std::string& item : SplitCsv(csv)) {
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

/// The experiment options the flags describe over `years` of
/// measurement. On simulate and repeat the serving model engages only
/// when --arrival-rate was given; `serve` forces it on (falling back to
/// the library's default rate).
ExperimentOptions FlagExperimentOptions(const Options& opt, double years,
                                        bool force_serving) {
  ExperimentOptions options;
  options.warmup = Days(360);
  options.num_batches = 20;
  options.batch_length = Years(years / 20.0);
  options.access.rate_per_day = opt.rate;
  options.seed = opt.seed;
  options.quorum_cache = !opt.no_quorum_cache;
  if (force_serving || opt.arrival_rate > 0.0) {
    options.serving.enabled = true;
    if (opt.arrival_rate > 0.0) {
      options.serving.arrival_rate_per_day = opt.arrival_rate;
    }
    options.serving.service_time_ms = opt.service_time_ms;
    options.serving.msg_cost_ms = opt.msg_cost_ms;
    options.serving.write_fraction = opt.write_fraction;
  }
  return options;
}

/// The --trace-out file: its schema header, then the recorded btrace
/// pages, written as they are when the path ends in .btrace and rendered
/// as dynvote-trace-v1 JSONL lines otherwise.
struct TraceFile {
  TraceFile() = default;
  // `pages` points at `out`: never copied or moved.
  TraceFile(const TraceFile&) = delete;
  TraceFile& operator=(const TraceFile&) = delete;

  std::ofstream out;
  std::unique_ptr<TracePageSink> pages;
};

/// Opens --trace-out and writes its header. Returns 0, or 1 with the
/// error already printed.
int OpenTraceFile(const Options& opt, TraceFile* trace) {
  const std::string& path = opt.trace_out_path;
  trace->out.open(path, std::ios::binary | std::ios::trunc);
  if (!trace->out) {
    std::cerr << "cannot open '" << path << "' for write\n";
    return 1;
  }
  constexpr std::string_view kBinaryExt = ".btrace";
  std::string header;
  if (path.ends_with(kBinaryExt)) {
    header = BinaryTraceHeader(opt.seed);
    trace->pages = std::make_unique<StreamPageSink>(&trace->out);
  } else {
    header = TraceHeaderLine(opt.seed) + "\n";
    trace->pages = std::make_unique<JsonlPageSink>(&trace->out);
  }
  trace->out.write(header.data(), static_cast<std::streamsize>(header.size()));
  return 0;
}

/// Closes --trace-out once `pages` (its page pipeline) is flushed. A
/// pipeline that lost events — a failed stream, a full disk — is reported
/// with the written-vs-offered reconciliation, so a silently truncated
/// trace is impossible to miss in scripts. Returns 0, or 1 with the error
/// already printed.
int CloseTraceFile(const std::string& path, const TracePageSink& pages,
                   std::uint64_t total, TraceFile* trace) {
  if (!pages.ok()) {
    std::cerr << "trace-out failed: " << pages.error() << " ("
              << pages.events_written() << " of " << total
              << " events reached " << path << ")\n";
    return 1;
  }
  trace->out.close();
  if (!trace->out) {
    std::cerr << "short write to '" << path << "'\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}

/// Writes --metrics-out after a run. Returns 0, or 1 with the error
/// already printed.
int WriteMetrics(const Options& opt, const MetricsShard& metrics) {
  if (opt.metrics_out_path.empty()) return 0;
  Status st = WriteFile(opt.metrics_out_path, metrics.ToJson());
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "wrote " << opt.metrics_out_path << "\n";
  return 0;
}

/// What simulate and repeat share: the network, the experiment built
/// from the flags, and a factory for the --policies protocols on the
/// --sites placement.
struct Experiment {
  NetworkConfig network;
  ExperimentSpec spec;
  SiteSet placement;
  ProtocolSetFactory protocols;
};

Result<Experiment> SetUpExperiment(const Options& opt) {
  Experiment e;
  DYNVOTE_ASSIGN_OR_RETURN(e.network, LoadNetwork(opt));
  DYNVOTE_ASSIGN_OR_RETURN(SiteSet placement,
                           ResolveSites(e.network, opt.sites));
  e.spec.topology = e.network.topology;
  e.spec.profiles = e.network.profiles;
  e.spec.repeater_profiles = e.network.repeater_profiles;
  e.spec.options = FlagExperimentOptions(
      opt, opt.years > 0.0 ? opt.years : 100.0, /*force_serving=*/false);
  e.placement = placement;
  e.protocols = [topology = e.network.topology, placement,
                 policies = SplitCsv(opt.policies)] {
    return MakeProtocolSet(policies, topology, placement);
  };
  return e;
}

/// Refuses an experiment the sample path cannot run, such as a network
/// file whose profile has a negative repair time or a maintenance window
/// longer than its interval. Like a bad flag value it is a usage error
/// (exit 2), reported before a trace file is opened or a run starts.
/// Returns 0 for a runnable experiment.
int RejectUnrunnable(const Experiment& e) {
  const Status st = SamplePath::Validate(e.spec, e.placement);
  if (st.ok()) return 0;
  std::cerr << st << "\n";
  return kExitUsage;
}

int Simulate(const Options& opt) {
  auto experiment = SetUpExperiment(opt);
  if (!experiment.ok()) {
    std::cerr << experiment.status() << "\n";
    return 1;
  }
  if (int rc = RejectUnrunnable(*experiment); rc != 0) return rc;
  ExperimentSpec& spec = experiment->spec;

  // Observability is opt-in per flag; with neither flag spec.obs stays
  // null and instrumentation costs one never-taken branch per site. The
  // trace records btrace pages on the simulation thread; a background
  // writer thread writes them to the file, rendering JSONL there when
  // the extension asks for it, so the simulation never waits on disk.
  TraceFile trace;
  std::optional<AsyncTraceSink> trace_writer;
  std::optional<BinaryTraceSink> trace_sink;
  MetricsShard metrics;
  ObsContext obs;
  if (!opt.trace_out_path.empty()) {
    if (int rc = OpenTraceFile(opt, &trace); rc != 0) return rc;
    trace_writer.emplace(trace.pages.get());
    trace_sink.emplace(&*trace_writer);
    obs.sink = &*trace_sink;
  }
  if (!opt.metrics_out_path.empty()) obs.metrics = &metrics;
  if (obs.sink != nullptr || obs.metrics != nullptr) spec.obs = &obs;

  // RunAvailabilityExperiment picks the engine: untraced runs of the
  // paper policies go to the batched engine, everything else (including
  // --no-quorum-cache) to the solo reference engine, with identical rows.
  auto protocols = experiment->protocols();
  if (!protocols.ok()) {
    std::cerr << protocols.status() << "\n";
    return 1;
  }
  auto results = RunAvailabilityExperiment(spec, protocols.MoveValue());
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
  if (trace_sink.has_value()) {
    // Drain the writer thread, then reconcile events offered against
    // events written — a failed trace is a hard error.
    trace_sink->Flush();
    if (int rc = CloseTraceFile(opt.trace_out_path, *trace_writer,
                                trace_sink->total_events(), &trace);
        rc != 0) {
      return rc;
    }
  }
  return WriteMetrics(opt, metrics);
}

int Repeat(const Options& opt) {
  auto experiment = SetUpExperiment(opt);
  if (!experiment.ok()) {
    std::cerr << experiment.status() << "\n";
    return 1;
  }
  if (int rc = RejectUnrunnable(*experiment); rc != 0) return rc;
  const NetworkConfig& network = experiment->network;

  // Command line wins; the network file's `experiment` declaration
  // supplies defaults.
  ReplicationOptions replication;
  replication.replications = opt.reps >= 1 ? opt.reps : network.replications;
  replication.jobs = opt.jobs >= 0 ? opt.jobs : network.jobs;
  replication.collect_traces = !opt.trace_out_path.empty();
  replication.collect_metrics = !opt.metrics_out_path.empty();
  replication.objects = opt.objects;

  TraceFile trace;
  if (replication.collect_traces) {
    if (int rc = OpenTraceFile(opt, &trace); rc != 0) return rc;
  }
  auto results = RunReplicatedExperiment(
      experiment->spec, experiment->protocols, replication);
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
  if (replication.collect_traces) {
    // Per-replication btrace bodies go out in replication order, so the
    // trace file is byte-identical for any --jobs. Each body is released
    // once written.
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < results->traces.size(); ++r) {
      total += results->trace_events[r];
      trace.pages->WriteEventPage(&results->traces[r],
                                  results->trace_events[r]);
      results->traces[r] = std::string();
    }
    trace.pages->Flush();
    if (int rc = CloseTraceFile(opt.trace_out_path, *trace.pages, total,
                                &trace);
        rc != 0) {
      return rc;
    }
  }
  return WriteMetrics(opt, results->metrics);
}

/// Runs the serving model (docs/serving.md) over the requested paper
/// placements and prints a per-protocol messages-per-access and latency-
/// percentile table per configuration. All figures come from the merged
/// metrics shard, which folds in replication order — so the report (and
/// the --json document) is byte-identical for any --jobs value.
int Serve(const Options& opt) {
  if (opt.config.empty()) {
    std::cerr << "--config needs at least one placement letter (A-H)\n";
    return kExitUsage;
  }
  // Every letter is checked before any configuration runs.
  for (char letter : opt.config) {
    if (PaperConfigurationFor(letter) == nullptr) {
      std::cerr << "--config: unknown configuration '" << letter
                << "' (the paper's are A-H)\n";
      return kExitUsage;
    }
  }
  std::vector<std::string> policies = SplitCsv(opt.policies);

  // The open loop serves ~1000 accesses per simulated day, so a short
  // horizon already gives tight percentiles; --years overrides.
  const double years = opt.years > 0.0 ? opt.years : 2.0;
  const ExperimentOptions options =
      FlagExperimentOptions(opt, years, /*force_serving=*/true);

  // Serving options the sample path cannot run (an arrival rate whose
  // longest gap overflows) are refused before any configuration runs, as
  // in simulate and repeat.
  auto paper = MakePaperNetwork();
  if (!paper.ok()) {
    std::cerr << paper.status() << "\n";
    return 1;
  }
  Experiment served;
  served.spec.topology = paper->topology;
  served.spec.profiles = paper->profiles;
  served.spec.options = options;
  for (const PaperConfiguration& c : PaperConfigurations()) {
    if (opt.config.find(c.label) == std::string::npos) continue;
    served.placement = c.placement;
    if (int rc = RejectUnrunnable(served); rc != 0) return rc;
  }

  ReplicationOptions replication;
  replication.replications = opt.reps >= 1 ? opt.reps : 1;
  replication.jobs = opt.jobs >= 0 ? opt.jobs : 1;
  replication.collect_metrics = true;

  std::string json;
  json.append("{\n  \"schema\": \"");
  json.append(kServingSchema);
  json.append("\",\n  \"arrival_rate_per_day\": ");
  AppendDouble(options.serving.arrival_rate_per_day, &json);
  json.append(",\n  \"service_time_ms\": ");
  AppendDouble(options.serving.service_time_ms, &json);
  json.append(",\n  \"msg_cost_ms\": ");
  AppendDouble(options.serving.msg_cost_ms, &json);
  json.append(",\n  \"write_fraction\": ");
  AppendDouble(options.serving.write_fraction, &json);
  json.append(",\n  \"years\": ");
  AppendDouble(years, &json);
  json.append(",\n  \"seed\": " + std::to_string(opt.seed));
  json.append(",\n  \"replications\": " +
              std::to_string(replication.replications));
  json.append(",\n  \"configs\": [");

  for (std::size_t c = 0; c < opt.config.size(); ++c) {
    const char config = opt.config[c];
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

    json.append(c == 0 ? "\n    {" : ",\n    {");
    json.append("\"config\": \"");
    json.push_back(config);
    json.append("\", \"policies\": [");

    bool first_policy = true;
    for (const std::string& name : policies) {
      const ServingRow row = ReadServingRow(metrics, name);
      table.AddRow({name, std::to_string(row.served),
                    std::to_string(row.rejected),
                    TextTable::Fixed(row.grant_pct, 2),
                    TextTable::Fixed(row.msgs_per_access, 2),
                    TextTable::Fixed(row.refresh_per_access, 2),
                    TextTable::Fixed(row.latency_ms.Quantile(0.50), 3),
                    TextTable::Fixed(row.latency_ms.Quantile(0.99), 3),
                    TextTable::Fixed(row.latency_ms.Quantile(0.999), 3),
                    TextTable::Fixed(row.queue_depth_max, 0)});
      json.append(first_policy ? "\n      " : ",\n      ");
      first_policy = false;
      AppendServingRowJson(row, &json);
    }
    json.append(first_policy ? "]}" : "\n    ]}");
    std::cout << table.ToString();
    if (c + 1 < opt.config.size()) std::cout << "\n";
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
  options.memoize = !opt.no_memo;
  options.shrink = !opt.no_shrink;
  options.jobs = opt.check_jobs;
  options.por = !opt.no_por;
  options.mode = opt.mode == "swarm" ? check::CheckMode::kSwarm
                                     : check::CheckMode::kExhaustive;
  if (opt.weaken_mutex) options.policy.max_granted_groups = 0;
  if (opt.strict != "auto") {
    options.policy.strict = opt.strict == "on";
  } else {
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

int Version(const Options&) {
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

constexpr Command kCommands[] = {
    {"print", kPrint, nullptr, Print},
    {"analyze", kAnalyze, nullptr, Analyze},
    {"simulate", kSimulate, nullptr, Simulate},
    {"repeat", kRepeat, nullptr, Repeat},
    {"serve", kServe, nullptr, Serve},
    {"scenario", kScenario, "SCRIPT.dvs", RunScenario},
    {"trace-summary", 0, "TRACE", TraceSummaryCommand},
    {"trace-convert", kTraceConvert, "TRACE.btrace", TraceConvertCommand},
    {"check", kCheck, nullptr, Check},
    {"version", 0, nullptr, Version},
};

/// Prints the usage of `only`, or of every command when it is null, with
/// the flags each accepts; returns the usage exit code.
int Usage(const Command* only) {
  std::cerr << "usage: dynvote <command> [flags]  (--flag=value or "
               "--flag value)\n";
  for (const Command& command : kCommands) {
    if (only != nullptr && &command != only) continue;
    std::string line = std::string("  dynvote ") + command.name;
    if (command.argument != nullptr) {
      line += std::string(" ") + command.argument;
    }
    for (const Flag& flag : kFlags) {
      if ((flag.commands & command.bit) == 0) continue;
      std::string word = std::string(" [--") + flag.name;
      if (TakesValue(flag)) word += std::string("=") + flag.value;
      word += "]";
      if (line.size() + word.size() > 78) {
        std::cerr << line << "\n";
        line = std::string(10 + std::string_view(command.name).size(), ' ');
      }
      line += word;
    }
    std::cerr << line << "\n";
  }
  for (const Flag& flag : kFlags) {
    if (only != nullptr && (flag.commands & only->bit) == 0) continue;
    std::string spelling = std::string("--") + flag.name;
    if (TakesValue(flag)) spelling += std::string("=") + flag.value;
    spelling.resize(std::max<std::size_t>(spelling.size(), 20), ' ');
    std::cerr << "  " << spelling << " " << flag.help << "\n";
  }
  return kExitUsage;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage(nullptr);
  // `--version` is the documented spelling of the version command.
  const std::string name =
      argv[1] == std::string_view("--version") ? "version" : argv[1];
  const Command* command = nullptr;
  for (const Command& candidate : kCommands) {
    if (name == candidate.name) command = &candidate;
  }
  if (command == nullptr) {
    std::cerr << "dynvote: unknown command '" << argv[1]
              << "'\navailable commands:";
    for (const Command& known : kCommands) std::cerr << " " << known.name;
    std::cerr << "\n(run dynvote without arguments for usage)\n";
    return kExitUnknownCommand;
  }
  auto opt = Parse(*command, std::vector<std::string>(argv + 2, argv + argc));
  if (!opt.ok()) {
    std::cerr << opt.status() << "\n";
    return Usage(command);
  }
  return command->run(*opt);
}

}  // namespace
}  // namespace cli
}  // namespace dynvote

int main(int argc, char** argv) { return dynvote::cli::Main(argc, argv); }
