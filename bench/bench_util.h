// Shared helpers for the benchmark binaries: command-line parsing for run
// length / seed, and the config × policy grid runner used by the Table 2
// and Table 3 reproductions. Implementations live in bench_util.cc so
// this header stays free of <iostream> (lint rule iostream-header).

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "model/experiment.h"

namespace dynvote {
namespace bench {

// ---------------------------------------------------------------------
// Minimum-of-rounds microbenchmark estimator.
//
// On a shared machine a single long timed run folds whatever load
// coincided with it straight into the reported number — and into any
// ratio a CI gate checks. Instead: calibrate a round length once (double
// the iteration count until a round takes >= min_ms / 4), run a fixed
// number of rounds, and report the fastest round's ns/op. The minimum is
// the standard least-interference estimator for benchmarks whose true
// cost is a lower bound plus nonnegative noise (medians still carry
// whatever load coincided with most rounds). The paired variant
// alternates the two sides inside every round, swapping the order round
// by round, so slow drift cancels out of the ratio instead of biasing
// one side.
// ---------------------------------------------------------------------

/// One estimator result: best-round ns per iteration, total iterations.
struct RoundsResult {
  double ns_per_op = 0.0;
  std::uint64_t ops = 0;
};

/// Rounds per measurement. Odd, so the paired variant runs both
/// orderings an almost-equal number of times.
inline constexpr int kBenchRounds = 7;

namespace internal {
template <typename Body>
double TimeOnceMs(Body&& body, std::uint64_t iters) {
  auto t0 = std::chrono::steady_clock::now();
  body(iters);
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}
}  // namespace internal

/// Doubles the iteration count until one body(iters) call takes at least
/// min_ms / 4 (so kBenchRounds rounds cost a small multiple of min_ms).
/// The calibration runs double as cache/branch-predictor warmup.
template <typename Body>
std::uint64_t CalibrateRoundIters(double min_ms, Body&& body) {
  std::uint64_t iters = 1;
  for (;;) {
    double ms = internal::TimeOnceMs(body, iters);
    if (ms >= min_ms / 4.0 || iters >= (std::uint64_t{1} << 32)) {
      return iters;
    }
    iters *= (ms <= min_ms / 64.0) ? 8 : 2;
  }
}

/// Min-of-rounds measurement of one body.
template <typename Body>
RoundsResult MeasureMinOfRounds(double min_ms, Body&& body) {
  const std::uint64_t iters = CalibrateRoundIters(min_ms, body);
  double best_ms = internal::TimeOnceMs(body, iters);
  for (int r = 1; r < kBenchRounds; ++r) {
    best_ms = std::min(best_ms, internal::TimeOnceMs(body, iters));
  }
  return {best_ms * 1e6 / static_cast<double>(iters), iters * kBenchRounds};
}

/// Paired min-of-rounds: measures `a` and `b` in alternating order
/// within each round. Calibrates the round length on `a`; both sides run
/// the same iteration count, so their ns/op are directly comparable.
template <typename BodyA, typename BodyB>
std::pair<RoundsResult, RoundsResult> MeasurePairedMinOfRounds(
    double min_ms, BodyA&& a, BodyB&& b) {
  const std::uint64_t iters = CalibrateRoundIters(min_ms, a);
  double best_a = -1.0;
  double best_b = -1.0;
  for (int r = 0; r < kBenchRounds; ++r) {
    double ms_a;
    double ms_b;
    if (r % 2 == 0) {
      ms_a = internal::TimeOnceMs(a, iters);
      ms_b = internal::TimeOnceMs(b, iters);
    } else {
      ms_b = internal::TimeOnceMs(b, iters);
      ms_a = internal::TimeOnceMs(a, iters);
    }
    best_a = best_a < 0.0 ? ms_a : std::min(best_a, ms_a);
    best_b = best_b < 0.0 ? ms_b : std::min(best_b, ms_b);
  }
  const double scale = 1e6 / static_cast<double>(iters);
  const std::uint64_t ops = iters * kBenchRounds;
  return {{best_a * scale, ops}, {best_b * scale, ops}};
}

/// Run-length knobs shared by every bench binary.
struct BenchArgs {
  /// Measured years per configuration (split into `batches` batches).
  double years = 600.0;
  int batches = 30;
  std::uint64_t seed = 20260704;
  /// Configuration labels to run (Table 2 rows).
  std::string configs = "ABCDEFGH";
  bool verbose = false;
  /// If non-empty, also write results as CSV to this path.
  std::string csv_path;
  /// Independent replications per configuration (>= 1). With more than
  /// one, tables show cross-replication means and the CI column becomes
  /// the cross-replication Student-t interval.
  int reps = 1;
  /// Worker threads for the replications (0 = all cores). Never changes
  /// results, only wall-clock time.
  int jobs = 1;
  /// Grant-decision memoization (--no-quorum-cache disables). Never
  /// changes results, only wall-clock time.
  bool quorum_cache = true;
  /// Independent runs per configuration (reliability_mttf only).
  int runs = 25;
};

/// Parses --years=, --batches=, --seed=, --configs=, --csv=, --reps=,
/// --jobs=, --runs=, --no-quorum-cache and --verbose from argv. Numbers
/// must parse whole (util/parse_number.h); --reps must be >= 1 and
/// --jobs >= 0. A bad value or an unknown flag prints a message naming
/// the flag and exits 2.
BenchArgs ParseArgs(int argc, char** argv);

/// Parses `value` of `flag` whole as a double, for the harnesses that
/// read their own flags (--min-time-ms=); exits 2 naming the flag on a
/// bad value.
double ParseDoubleFlag(const std::string& flag, const std::string& value);

/// `value` fixed-point with three decimals, the number format of the
/// hotpath and check records and of the bench console lines.
std::string FormatDouble(double value);

/// Prints "unknown flag <arg>" and exits 2.
[[noreturn]] void RejectUnknownFlag(const std::string& arg);

/// Builds paper-style experiment options from bench args.
ExperimentOptions MakeOptions(const BenchArgs& args);

/// Results of the full config × policy grid.
struct GridResults {
  // key: config label, value: per-policy results (paper column order).
  std::map<char, std::vector<PolicyResult>> by_config;
};

/// Runs the paper's six policies over the requested configurations with
/// common random numbers per configuration. With --reps=N > 1 each
/// configuration runs N independent replications (fanned out over --jobs
/// threads) and the table rows carry cross-replication means with
/// Student-t CIs instead of single-run batch means. Exits the process on
/// error (bench binaries have no meaningful recovery).
GridResults RunPaperGrid(const BenchArgs& args);

/// Flattens a grid into labelled rows and, if requested, writes CSV.
void MaybeWriteCsv(const BenchArgs& args, const GridResults& grid);

/// One shape expectation: "measured[a] relation measured[b]".
struct ShapeCheck {
  std::string description;
  bool passed;
};

/// Prints the PASS/FAIL table and returns the number of failures.
int ReportShapeChecks(const std::vector<ShapeCheck>& checks);

/// Finds the result of `policy` in a config row; exits if missing.
const PolicyResult& ResultOf(const std::vector<PolicyResult>& row,
                             const std::string& policy);

}  // namespace bench
}  // namespace dynvote
