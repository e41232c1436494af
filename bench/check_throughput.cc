// Model-checker throughput harness: the parallel exploration fan-out
// against the sequential engine, the transition savings of partial-order
// reduction, the deepest exhaustive bounds this build demonstrates, and
// the memory one reached state costs.
//
// Results are written to BENCH_check.json (override with --out=PATH) in
// a stable schema so successive PRs can track the checker's reach:
//
//   {
//     "schema": "dynvote-checkbench-v1",
//     "benchmarks": [
//       {"name": "...", "work": "states" | "transitions",
//        "per_sec": N, "solo_per_sec": N, "speedup": N}, ...
//     ],
//     "por": [
//       {"name": "...", "transitions_with_por": N,
//        "transitions_without": N, "reduction": F,
//        "states_equal": true, "digest_equal": true}, ...
//     ],
//     "depth": [
//       {"universe": "...", "protocol": "...", "depth": N,
//        "states": N, "transitions": N, "seconds": F, "por": B}, ...
//     ],
//     "memory": [
//       {"universe": "...", "protocol": "...", "depth": N,
//        "closed_at_depth": N, "states": N, "seconds": F,
//        "peak_rss_delta_mb": F, "bytes_per_state": F}, ...
//     ]
//   }
//
// "benchmarks" rows pair jobs=4 against jobs=1 (solo) on the identical
// workload with the alternating paired estimator from bench_util.h, so
// the speedup CI gates is immune to machine drift; the two sides produce
// bit-identical reports (the parallel tests prove it), so the ratio is
// pure engine overhead vs. fan-out win. "por" rows rerun the same bound
// with reduction off and assert the visited-state *set* (count and
// order-independent digest) is unchanged. "depth" rows are one-shot
// demonstrations of the bounds the ROADMAP targets (single3 >= 11,
// section3 >= 6), with wall-clock seconds for the record. "memory" rows
// run a universe to closure, record its wall-clock seconds, and divide
// the growth of the process's peak resident set (VmHWM) over the run by
// the states it reached; they run first, before any other row has grown
// the heap.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "check/checker.h"
#include "obs/schemas.h"

namespace dynvote {
namespace {

check::CheckReport MustCheck(const check::CheckOptions& options) {
  auto report = check::RunCheck(options);
  if (!report.ok()) {
    std::cerr << "check failed: " << report.status() << "\n";
    std::exit(1);
  }
  return report.MoveValue();
}

check::CheckOptions ExhaustiveOptions(const std::string& protocol,
                                      const std::string& topology,
                                      int depth) {
  check::CheckOptions options;
  options.protocol = protocol;
  options.topology = topology;
  options.depth = depth;
  // Strict checking would rediscover the documented hazards of the
  // non-partition-safe protocols; throughput rows want full-depth
  // exploration, so they run protocols that pass strict.
  return options;
}

// ---------------------------------------------------------------------
// Parallel speedup (jobs=4 vs solo, paired rounds)
// ---------------------------------------------------------------------

struct SpeedupEntry {
  std::string name;
  std::string work;  // what per_sec counts: "states" or "transitions"
  double per_sec = 0.0;
  double solo_per_sec = 0.0;
};

/// Measures one workload at jobs=4 against jobs=1, converting the paired
/// ns-per-run estimates into work units per second.
SpeedupEntry MeasureSpeedup(const std::string& name, double min_ms,
                            check::CheckOptions options,
                            const std::string& work,
                            std::uint64_t units_per_run) {
  check::CheckOptions parallel = options;
  parallel.jobs = 4;
  check::CheckOptions solo = options;
  solo.jobs = 1;
  auto [par_r, solo_r] = bench::MeasurePairedMinOfRounds(
      min_ms,
      [&parallel](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) MustCheck(parallel);
      },
      [&solo](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) MustCheck(solo);
      });
  SpeedupEntry entry;
  entry.name = name;
  entry.work = work;
  entry.per_sec = static_cast<double>(units_per_run) * 1e9 / par_r.ns_per_op;
  entry.solo_per_sec =
      static_cast<double>(units_per_run) * 1e9 / solo_r.ns_per_op;
  return entry;
}

void BenchSpeedups(double min_ms, std::vector<SpeedupEntry>* out) {
  // Exhaustive: section3 is the paper's running example and the widest
  // universe (9-action alphabet), so its levels offer the most parallel
  // slack per barrier.
  {
    check::CheckOptions options = ExhaustiveOptions("ODV", "section3", 6);
    const check::CheckReport probe = MustCheck(options);
    out->push_back(MeasureSpeedup("exhaustive_odv_section3_d6", min_ms,
                                  options, "states",
                                  probe.states_visited));
  }
  // Swarm: 256 independent schedules is the embarrassingly parallel
  // shape; per-schedule slots mean zero coordination between workers.
  {
    check::CheckOptions options;
    options.protocol = "ODV";
    options.topology = "pairs";
    options.mode = check::CheckMode::kSwarm;
    options.swarm_schedules = 256;
    options.swarm_depth = 12;
    const check::CheckReport probe = MustCheck(options);
    out->push_back(MeasureSpeedup("swarm_odv_pairs_s256_d12", min_ms,
                                  options, "transitions",
                                  probe.transitions));
  }
}

// ---------------------------------------------------------------------
// Partial-order reduction (same bound, POR on vs off)
// ---------------------------------------------------------------------

struct PorEntry {
  std::string name;
  std::uint64_t transitions_with_por = 0;
  std::uint64_t transitions_without = 0;
  bool states_equal = false;
  bool digest_equal = false;
};

void BenchPor(std::vector<PorEntry>* out) {
  struct Row {
    const char* name;
    const char* protocol;
    const char* topology;
    int depth;
  };
  const Row rows[] = {
      {"por_odv_single3_d9", "ODV", "single3", 9},
      {"por_odv_section3_d6", "ODV", "section3", 6},
      {"por_mcv_pairs_d7", "MCV", "pairs", 7},
  };
  for (const Row& row : rows) {
    check::CheckOptions with_por =
        ExhaustiveOptions(row.protocol, row.topology, row.depth);
    check::CheckOptions without = with_por;
    without.por = false;
    const check::CheckReport on = MustCheck(with_por);
    const check::CheckReport off = MustCheck(without);
    PorEntry entry;
    entry.name = row.name;
    entry.transitions_with_por = on.transitions;
    entry.transitions_without = off.transitions;
    entry.states_equal = on.states_visited == off.states_visited;
    entry.digest_equal = on.visited_digest == off.visited_digest;
    if (!on.por_active || !entry.states_equal || !entry.digest_equal) {
      std::cerr << "POR equivalence broken on " << row.name << "\n";
      std::exit(1);
    }
    out->push_back(entry);
  }
}

// ---------------------------------------------------------------------
// Depth demonstrations (one-shot, wall clock for the record)
// ---------------------------------------------------------------------

struct DepthEntry {
  std::string universe;
  std::string protocol;
  int depth = 0;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  double seconds = 0.0;
  bool por = false;
};

void BenchDepths(std::vector<DepthEntry>* out) {
  struct Row {
    const char* protocol;
    const char* topology;
    int depth;
  };
  // single3 closes (the frontier empties) by depth 12, so the row both
  // exceeds the >= 11 target and records the universe's full diameter;
  // section3's 9-action alphabet makes depth 8 the demonstration row.
  const Row rows[] = {
      {"ODV", "single3", 12},
      {"ODV", "section3", 8},
  };
  for (const Row& row : rows) {
    check::CheckOptions options =
        ExhaustiveOptions(row.protocol, row.topology, row.depth);
    options.jobs = 0;  // all cores: the demonstration uses the machine
    auto t0 = std::chrono::steady_clock::now();
    const check::CheckReport report = MustCheck(options);
    auto t1 = std::chrono::steady_clock::now();
    if (report.counterexample.has_value()) {
      std::cerr << "unexpected violation in depth row " << row.topology
                << "\n";
      std::exit(1);
    }
    DepthEntry entry;
    entry.universe = row.topology;
    entry.protocol = row.protocol;
    entry.depth = row.depth;
    entry.states = report.states_visited;
    entry.transitions = report.transitions;
    entry.seconds = std::chrono::duration<double>(t1 - t0).count();
    entry.por = report.por_active;
    out->push_back(entry);
  }
}

// ---------------------------------------------------------------------
// Memory per state (one-shot, to closure)
// ---------------------------------------------------------------------

struct MemoryEntry {
  std::string universe;
  std::string protocol;
  int depth = 0;
  int closed_at_depth = 0;
  std::uint64_t states = 0;
  double seconds = 0.0;
  double peak_rss_delta_mb = 0.0;
  double bytes_per_state = 0.0;
};

/// The process's peak resident set size in bytes (VmHWM), or 0 where
/// /proc/self/status is unavailable.
double PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0;  // kB
    }
  }
  return 0.0;
}

void BenchMemory(std::vector<MemoryEntry>* out) {
  // LDV on section3 closes at 126,914 states inside depth 20: large
  // enough that the checker's per-state containers dwarf the process's
  // baseline, small enough to run in a couple of seconds.
  check::CheckOptions options = ExhaustiveOptions("LDV", "section3", 20);
  options.jobs = 4;
  const double before = PeakRssBytes();
  const auto t0 = std::chrono::steady_clock::now();
  const check::CheckReport report = MustCheck(options);
  const auto t1 = std::chrono::steady_clock::now();
  const double after = PeakRssBytes();
  if (report.counterexample.has_value() || report.closed_at_depth == 0) {
    std::cerr << "memory row did not run LDV on section3 to closure\n";
    std::exit(1);
  }
  MemoryEntry entry;
  entry.universe = options.topology;
  entry.protocol = options.protocol;
  entry.depth = options.depth;
  entry.closed_at_depth = report.closed_at_depth;
  entry.states = report.states_visited;
  entry.seconds = std::chrono::duration<double>(t1 - t0).count();
  entry.peak_rss_delta_mb = (after - before) / (1024.0 * 1024.0);
  entry.bytes_per_state =
      (after - before) / static_cast<double>(report.states_visited);
  out->push_back(entry);
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string FormatDouble(double value) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << value;
  return os.str();
}

std::string ToJson(const std::vector<SpeedupEntry>& speedups,
                   const std::vector<PorEntry>& por,
                   const std::vector<DepthEntry>& depths,
                   const std::vector<MemoryEntry>& memory) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kCheckBenchSchema << "\",\n"
     << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < speedups.size(); ++i) {
    const SpeedupEntry& e = speedups[i];
    os << "    {\"name\": \"" << e.name << "\", \"work\": \"" << e.work
       << "\", \"per_sec\": " << FormatDouble(e.per_sec)
       << ", \"solo_per_sec\": " << FormatDouble(e.solo_per_sec)
       << ", \"speedup\": " << FormatDouble(e.per_sec / e.solo_per_sec)
       << "}" << (i + 1 < speedups.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"por\": [\n";
  for (std::size_t i = 0; i < por.size(); ++i) {
    const PorEntry& e = por[i];
    const double reduction =
        1.0 - static_cast<double>(e.transitions_with_por) /
                  static_cast<double>(e.transitions_without);
    os << "    {\"name\": \"" << e.name << "\", \"transitions_with_por\": "
       << e.transitions_with_por << ", \"transitions_without\": "
       << e.transitions_without << ", \"reduction\": "
       << FormatDouble(reduction) << ", \"states_equal\": "
       << (e.states_equal ? "true" : "false") << ", \"digest_equal\": "
       << (e.digest_equal ? "true" : "false") << "}"
       << (i + 1 < por.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"depth\": [\n";
  for (std::size_t i = 0; i < depths.size(); ++i) {
    const DepthEntry& e = depths[i];
    os << "    {\"universe\": \"" << e.universe << "\", \"protocol\": \""
       << e.protocol << "\", \"depth\": " << e.depth << ", \"states\": "
       << e.states << ", \"transitions\": " << e.transitions
       << ", \"seconds\": " << FormatDouble(e.seconds) << ", \"por\": "
       << (e.por ? "true" : "false") << "}"
       << (i + 1 < depths.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"memory\": [\n";
  for (std::size_t i = 0; i < memory.size(); ++i) {
    const MemoryEntry& e = memory[i];
    os << "    {\"universe\": \"" << e.universe << "\", \"protocol\": \""
       << e.protocol << "\", \"depth\": " << e.depth
       << ", \"closed_at_depth\": " << e.closed_at_depth
       << ", \"states\": " << e.states << ", \"seconds\": "
       << FormatDouble(e.seconds) << ", \"peak_rss_delta_mb\": "
       << FormatDouble(e.peak_rss_delta_mb) << ", \"bytes_per_state\": "
       << FormatDouble(e.bytes_per_state) << "}"
       << (i + 1 < memory.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_check.json";
  double min_ms = 200.0;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else if (a.rfind("--min-time-ms=", 0) == 0) {
      min_ms = std::stod(a.substr(14));
    }
  }

  std::vector<SpeedupEntry> speedups;
  std::vector<PorEntry> por;
  std::vector<DepthEntry> depths;
  std::vector<MemoryEntry> memory;
  BenchMemory(&memory);
  BenchSpeedups(min_ms, &speedups);
  BenchPor(&por);
  BenchDepths(&depths);

  std::cout << "model-checker throughput:\n";
  for (const SpeedupEntry& e : speedups) {
    std::cout << "  " << e.name << ": " << FormatDouble(e.per_sec) << " "
              << e.work << "/s jobs=4, " << FormatDouble(e.solo_per_sec)
              << " solo, speedup "
              << FormatDouble(e.per_sec / e.solo_per_sec) << "x\n";
  }
  for (const PorEntry& e : por) {
    std::cout << "  " << e.name << ": " << e.transitions_with_por << " vs "
              << e.transitions_without
              << " transitions (states/digest preserved)\n";
  }
  for (const DepthEntry& e : depths) {
    std::cout << "  depth " << e.universe << "@" << e.depth << ": "
              << e.states << " states, " << e.transitions
              << " transitions in " << FormatDouble(e.seconds) << "s\n";
  }
  for (const MemoryEntry& e : memory) {
    std::cout << "  memory " << e.protocol << " " << e.universe << "@"
              << e.depth << " (closed at " << e.closed_at_depth << "): "
              << e.states << " states in " << FormatDouble(e.seconds)
              << "s, +"
              << FormatDouble(e.peak_rss_delta_mb) << " MB peak RSS, "
              << FormatDouble(e.bytes_per_state) << " B/state\n";
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << ToJson(speedups, por, depths, memory);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace dynvote

int main(int argc, char** argv) { return dynvote::Main(argc, argv); }
