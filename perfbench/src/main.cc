// perfbench: the end-to-end benchmark of the four north-star workloads.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|small] [--out-dir DIR] [--commit ID]
//   perfbench --workload NAME --print-digests [--size ...]
//
// --trace 0 times the workload untraced and prints the end-to-end
// metrics; --trace 1 runs the traced run and prints the per-layer
// metrics. Both check every unit's output digest (against the stored
// golden at the golden seed, else against the first round plus the
// cross-checks), print one "name = value unit" line per metric, write
// the full record with an environment stamp to DIR, and end with one
// JSON line: {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Share of a traced run's wall the ledger may leave unattributed.
constexpr double kUnattributedTolerance = 0.10;

/// Untraced rounds at least, whatever --seconds says.
constexpr int kMinRounds = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = kGoldenSeed;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string out_dir = ".bench_build/perfbench/results";
  std::string commit = "unknown";
  bool print_digests = false;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order. A traced run reports
/// all of them; one that does not apply to the workload reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count/obj-yr"},
    {"sim.queue_ns", "ns"},
    {"sim.calendar_ns", "ns"},
    {"sim.self_frac", "frac"},
    {"model.dispatch_self_ns", "ns"},
    {"model.accesses", "count/obj-yr"},
    {"model.grant_ratio", "ratio"},
    {"model.serving_self_ns", "ns"},
    {"model.group_ms_p50", "ms"},
    {"model.group_ms_p90", "ms"},
    {"model.group_samples", "count"},
    {"model.self_frac", "frac"},
    {"net.flips", "count/obj-yr"},
    {"net.flip_ns", "ns"},
    {"net.flip_self_ns", "ns"},
    {"net.self_frac", "frac"},
    {"core.quorum_evals", "count/obj-yr"},
    {"core.quorum_ns", "ns"},
    {"core.quorum_self_ns", "ns"},
    {"core.memo_hit_ratio", "ratio"},
    {"core.memo_saved_frac", "frac"},
    {"core.self_frac", "frac"},
    {"repl.commits", "count/access"},
    {"repl.commit_ns", "ns"},
    {"stats.aggregate_ms", "ms"},
    {"stats.self_frac", "frac"},
    {"obs.events", "count/obj-yr"},
    {"obs.encode_ns", "ns"},
    {"obs.btrace_bytes_per_event", "B/event"},
    {"obs.metrics_ratio", "ratio"},
    {"obs.trace_ratio", "ratio"},
    {"obs.self_frac", "frac"},
    {"util.pool_busy_frac", "frac"},
    {"util.pool_wait_ms", "ms"},
    {"util.join_tail_ms", "ms"},
    {"util.speedup", "ratio"},
    {"check.states", "count"},
    {"check.transitions", "count"},
    {"check.level_ms", "ms"},
    {"check.por_saved_frac", "frac"},
    {"check.apply_ns", "ns"},
    {"check.signature_ns", "ns"},
    {"check.insert_ns", "ns"},
    {"check.insert_contention", "ratio"},
    {"ledger.unattributed_frac", "frac"},
    {"ledger.trace_cost_frac", "frac"},
    {"ledger.replay_mismatches", "count"},
};

/// Moves the calling thread round-robin over the CPUs it may run on, and
/// back to all of them on Restore() or destruction. The CPUs of a shared
/// host differ in speed, and a one-thread process stays where it
/// started; rotating makes every run sample all of them.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    CPU_ZERO(&allowed_);
    if (!enabled || sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
    enabled_ = cpus_.size() > 1;
  }
  ~CpuRotation() { Restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (!enabled_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

  void Restore() {
    if (enabled_) (void)sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }

 private:
  bool enabled_ = false;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// What a run reports of its many timings: the fastest. Other tenants of
/// a shared host only ever add time, and on a shared 4-vCPU VM the median
/// of a 15-second run drifted by 15-20% between runs where the minimum
/// moved by 1-7%.
double Fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

int Usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|small] [--out-dir DIR] "
               "[--commit ID] [--print-digests]\nworkloads:";
  for (const std::string& name : WorkloadNames()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

/// Parses --flag value and --flag=value. Returns false on a bad flag.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (flag != "--print-digests") {
      if (i + 1 >= argc) {
        *error = "missing value for " + flag;
        return false;
      }
      value = argv[++i];
    }
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          *error = "--trace takes 0 or 1";
          return false;
        }
        args->trace = value == "1";
      } else if (flag == "--size") {
        if (value != "full" && value != "small") {
          *error = "--size takes full or small";
          return false;
        }
        args->size = value == "small" ? Size::kSmall : Size::kFull;
      } else if (flag == "--out-dir") {
        args->out_dir = value;
      } else if (flag == "--commit") {
        args->commit = value;
      } else if (flag == "--print-digests") {
        args->print_digests = true;
      } else {
        *error = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (!(args->seconds > 0.0) || !std::isfinite(args->seconds)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

/// %.17g, with non-finite values (which JSON cannot carry) as 0.
std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string json = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json += first ? "" : ", ";
    first = false;
    json += Quoted(name) + ": {\"value\": " + Number(metric.value) +
            ", \"unit\": " + Quoted(metric.unit) + "}";
  }
  return json + "}";
}

struct Environment {
  unsigned nproc = 0;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string compiler = __VERSION__;
  std::string commit;
  std::string machine;
};

Environment Stamp(const std::string& commit) {
  Environment env;
  env.nproc = std::thread::hardware_concurrency();
  env.commit = commit;
  utsname name{};
  if (uname(&name) == 0) {
    env.machine = std::string(name.sysname) + " " + name.release + " " +
                  name.machine;
  }
  return env;
}

/// Compares one round's units against the reference digests (goldens, or
/// the first round); counts failures and notes them.
int CheckUnits(const std::vector<UnitOutput>& units,
               const std::vector<std::uint64_t>& reference,
               std::vector<std::string>* notes) {
  int failed = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const UnitOutput& u = units[i];
    if (!u.status.ok()) {
      ++failed;
      notes->push_back(u.name + ": " + u.status.ToString());
    } else if (i >= reference.size() || u.digest != reference[i]) {
      ++failed;
      notes->push_back(u.name + ": digest " + DigestHex(u.digest) +
                       " differs from " +
                       (i < reference.size() ? DigestHex(reference[i])
                                             : std::string("nothing")));
    }
  }
  if (units.size() != reference.size()) {
    ++failed;
    notes->push_back("round produced " + std::to_string(units.size()) +
                     " units, expected " + std::to_string(reference.size()));
  }
  return failed;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.size);
  if (workload == nullptr) return Usage("unknown workload " + args.workload);
  const Environment env = Stamp(args.commit);
  std::cout << "perfbench " << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " size=" << (args.size == Size::kFull ? "full" : "small")
            << "\nenvironment: nproc=" << env.nproc
            << " build=" << env.build_type << " compiler=\"" << env.compiler
            << "\" commit=" << env.commit << " machine=\"" << env.machine
            << "\"\n";

  // Set-up, many times after a warm-up (clocks, caches, lazy statics);
  // the fastest is setup_s.
  const Clock::time_point warm_start = Clock::now();
  while (SecondsSince(warm_start) < 0.2) {
    const dynvote::Status st = workload->Setup();
    if (!st.ok()) {
      std::cerr << "perfbench: set-up failed: " << st << "\n";
      return 1;
    }
  }
  CpuRotation rotation(workload->Threads() == 1);
  std::vector<double> setups;
  const Clock::time_point setup_start = Clock::now();
  while (setups.size() < 20 ||
         (setups.size() < 20000 && SecondsSince(setup_start) < 0.4)) {
    if (setups.size() % 25 == 0) rotation.Next();
    const Clock::time_point t0 = Clock::now();
    (void)workload->Setup();
    setups.push_back(SecondsSince(t0));
  }
  rotation.Restore();

  if (args.print_digests) {
    for (const UnitOutput& u : workload->RunRound()) {
      std::cout << args.workload << " " << u.name << " "
                << (u.status.ok() ? DigestHex(u.digest) : u.status.ToString())
                << "\n";
    }
    return 0;
  }

  std::vector<std::uint64_t> reference = workload->Goldens();
  const bool golden = !reference.empty();
  std::vector<std::string> notes;
  int attempted = 0;
  int failed = 0;
  std::vector<UnitOutput> first;
  // One untimed round first: it fills caches and allocator pools and
  // provides the reference digests when the seed has no goldens.
  first = workload->RunRound();
  if (!golden) {
    for (const UnitOutput& u : first) reference.push_back(u.digest);
  }
  attempted += static_cast<int>(first.size());
  failed += CheckUnits(first, reference, &notes);

  std::vector<double> walls;
  std::vector<double> cpus;
  const Clock::time_point measure_start = Clock::now();
  while (static_cast<int>(walls.size()) < kMinRounds ||
         (!args.trace && SecondsSince(measure_start) < args.seconds)) {
    rotation.Next();
    const double cpu0 = CpuSeconds();
    const Clock::time_point t0 = Clock::now();
    std::vector<UnitOutput> units = workload->RunRound();
    walls.push_back(SecondsSince(t0));
    cpus.push_back(CpuSeconds() - cpu0);
    attempted += static_cast<int>(units.size());
    failed += CheckUnits(units, reference, &notes);
  }
  rotation.Restore();
  const double peak_rss = PeakRssMb();
  const double wall = Fastest(walls);

  MetricMap metrics;
  if (!args.trace) {
    if (!golden) {
      ++attempted;
      if (workload->CrossCheck(first, &notes) > 0) ++failed;
    }
    metrics["setup_s"] = Metric{Fastest(setups), "s"};
    metrics["wall_s"] = Metric{wall, "s"};
    metrics["cpu_s"] = Metric{Fastest(cpus), "s"};
    metrics["peak_rss_mb"] = Metric{peak_rss, "MB"};
    metrics["work_per_s"] = Metric{workload->WorkPerRound() / wall, "1/s"};
  } else {
    TraceReport report = workload->Traced(first, wall);
    attempted += report.units + 1;  // + the replay self-check
    if (report.mismatches > 0) ++failed;
    notes.insert(notes.end(), report.notes.begin(), report.notes.end());
    report.metrics["ledger.replay_mismatches"] =
        Metric{static_cast<double>(report.mismatches), "count"};
    for (const MetricSpec& spec : kPerLayer) {
      auto it = report.metrics.find(spec.name);
      if (it == report.metrics.end()) {
        metrics[spec.name] = Metric{0.0, spec.unit};
      } else if (it->second.unit != spec.unit) {
        std::cerr << "perfbench: " << spec.name << " reported in "
                  << it->second.unit << ", declared " << spec.unit << "\n";
        return 1;
      } else {
        metrics[spec.name] = it->second;
        report.metrics.erase(it);
      }
    }
    if (!report.metrics.empty()) {
      std::cerr << "perfbench: undeclared metric "
                << report.metrics.begin()->first << "\n";
      return 1;
    }
  }
  const bool correct = failed == 0;

  // Human-readable report.
  std::cout << "rounds: " << walls.size() << " ("
            << (golden ? "golden digests" : "first-round digests + cross-checks")
            << "), wall s:";
  for (double w : walls) std::cout << " " << Number(w).substr(0, 6);
  std::cout << "\n";
  for (const auto& [name, metric] : metrics) {
    std::cout << "  " << name << " = " << Number(metric.value) << " "
              << metric.unit << "\n";
  }
  if (!args.trace) {
    std::cout << "  " << workload->ThroughputName() << " = "
              << Number(workload->WorkPerRound() / wall) << " 1/s\n";
  } else {
    std::cout << "  ledger tolerance: unattributed_frac <= "
              << kUnattributedTolerance << " ("
              << (metrics["ledger.unattributed_frac"].value <=
                          kUnattributedTolerance
                      ? "within"
                      : "OUTSIDE")
              << ")\n";
  }
  std::cout << "  fail_frac = "
            << Number(static_cast<double>(failed) / attempted) << " ("
            << failed << "/" << attempted << " units)\n";
  for (const std::string& note : notes) std::cout << "  note: " << note << "\n";

  // Full record with the environment stamp.
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << "{\"workload\": " << Quoted(args.workload)
      << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
      << ",\n \"environment\": {\"nproc\": " << env.nproc
      << ", \"build_type\": " << Quoted(env.build_type)
      << ", \"compiler\": " << Quoted(env.compiler)
      << ", \"commit\": " << Quoted(env.commit)
      << ", \"machine\": " << Quoted(env.machine) << "},\n \"rounds\": "
      << walls.size() << ", \"round_walls\": [";
  for (std::size_t i = 0; i < walls.size(); ++i) {
    out << (i ? ", " : "") << Number(walls[i]);
  }
  out << "], \"golden\": " << (golden ? "true" : "false")
      << ", \"unattributed_tolerance\": " << Number(kUnattributedTolerance)
      << ",\n \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"fail_frac\": "
      << Number(static_cast<double>(failed) / attempted)
      << ",\n \"metrics\": " << MetricsJson(metrics) << ",\n \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    out << (i ? ", " : "") << Quoted(notes[i]);
  }
  out << "]}\n";
  if (!out) std::cout << "  note: could not write " << path << "\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") {
    std::cerr << "perfbench: refusing to time a Debug build\n";
    return 3;
  }
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    return perfbench::Usage(error);
  }
  return perfbench::Run(args);
}
