// Shared vocabulary of the end-to-end benchmark: clocks, resource usage,
// output digests, the metric map printed at the end of a run, and the
// Workload interface the four north-star workloads implement.
//
// A workload is a batch job with a fixed amount of work per *round*. An
// untraced run sets the workload up several times (setup_s is the median),
// then repeats rounds until the requested seconds are spent and reports
// per-round medians. A traced run (--trace 1) is separate: it records,
// replays and decomposes the workload from outside the library and reports
// per-layer metrics (see traced.cc and README.md).

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "model/experiment.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// User plus system CPU seconds of the whole process (all threads).
double CpuSeconds();

/// Peak resident set size of the process so far, MiB.
double PeakRssMb();

/// Median of `values` (0 for an empty vector).
double Median(std::vector<double> values);

/// The q-quantile (0..1) by linear interpolation between order statistics.
double Quantile(std::vector<double> values, double q);

/// FNV-1a 64 over a canonical rendering of a unit's outputs.
class Digest {
 public:
  void Bytes(std::string_view bytes);
  void U64(std::uint64_t value);
  /// Hashes the IEEE-754 bit pattern: outputs must match bit for bit.
  void F64(double value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// 16 lowercase hex digits.
std::string DigestHex(std::uint64_t value);

/// Folds every field of every row into `digest`.
void AddRows(const std::vector<dynvote::PolicyResult>& rows, Digest* digest);

/// How two engines' rows for the same seeds compare.
enum class RowMatch { kExact, kLastBits, kDifferent };

/// Counters must match exactly; a real-valued field may differ by a
/// relative 1e-9 (kLastBits). The solo and batched engines promise bit
/// identity but can part in the last bits of the tracked durations, so
/// the cross-checks count kLastBits as a note, not a failure.
RowMatch CompareRows(const std::vector<dynvote::PolicyResult>& a,
                     const std::vector<dynvote::PolicyResult>& b);

/// One unit of a round: a configuration row, a 64-object group, a serve
/// configuration or the check run.
struct UnitOutput {
  std::string name;
  dynvote::Status status;
  std::uint64_t digest = 0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics by name, printed in name order.
using MetricMap = std::map<std::string, Metric>;

/// How much work a round holds: the benchmark's reference size, or the
/// minimal size the self-test runs.
enum class Size { kFull, kSmall };

/// What a traced run reports besides its metrics.
struct TraceReport {
  MetricMap metrics;
  /// Replayed calls whose result differed from the recorded one, plus
  /// traced outputs that differed from the untraced run. Nonzero fails
  /// the traced run.
  std::uint64_t mismatches = 0;
  /// Units the traced run executed (recorded runs, replays, ablations).
  int units = 0;
  std::vector<std::string> notes;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the topology, placements and protocol factories, starts the
  /// pool where the workload uses one, and reaches the first unit of
  /// work. Idempotent: the harness calls it several times to time it.
  virtual dynvote::Status Setup() = 0;

  /// Runs the fixed work once.
  virtual std::vector<UnitOutput> RunRound() = 0;

  /// Threads a round runs on. The harness moves a one-thread workload to
  /// the next allowed CPU between rounds, so a run samples every CPU
  /// instead of the speed of whichever one it started on.
  virtual int Threads() const = 0;

  /// The work one round does, in the unit of ThroughputName(): simulated
  /// object-years (warm-up included) or distinct canonical states.
  virtual double WorkPerRound() const = 0;
  virtual const char* ThroughputName() const = 0;

  /// Stored golden digests for this workload and seed, one per unit in
  /// round order; empty when the seed has none.
  virtual std::vector<std::uint64_t> Goldens() const = 0;

  /// Re-checks guarantees the code already makes (jobs, objects and POR
  /// invariance) against `round`. Returns the number of failed checks and
  /// describes each in `notes`.
  virtual int CrossCheck(const std::vector<UnitOutput>& round,
                         std::vector<std::string>* notes) = 0;

  /// The traced run. `untraced` is an untraced round's output and
  /// `untraced_wall_s` the median untraced round wall the caller measured
  /// just before: the base of every overhead ratio.
  virtual TraceReport Traced(const std::vector<UnitOutput>& untraced,
                             double untraced_wall_s) = 0;
};

const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, Size size);

/// The seed the golden digests were taken with.
inline constexpr std::uint64_t kGoldenSeed = 20260704;

}  // namespace perfbench
