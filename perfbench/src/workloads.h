// The four north-star workloads. Each class owns what Setup() builds and
// implements its untraced round in workloads.cc and its traced run in
// traced.cc.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "check/checker.h"
#include "model/batched_experiment.h"
#include "model/experiment.h"
#include "model/replicated_experiment.h"
#include "model/site_profile.h"

namespace perfbench {

/// The Table 2/3 reproduction: configurations A-H x the six paper
/// policies through the solo engine, one unit per configuration row.
class PaperGrid final : public Workload {
 public:
  PaperGrid(std::uint64_t seed, Size size);

  dynvote::Status Setup() override;
  std::vector<UnitOutput> RunRound() override;
  double WorkPerRound() const override;
  const char* ThroughputName() const override { return "object_years_per_s"; }
  int Threads() const override;
  std::vector<std::uint64_t> Goldens() const override;
  int CrossCheck(const std::vector<UnitOutput>& round,
                 std::vector<std::string>* notes) override;
  TraceReport Traced(const std::vector<UnitOutput>& untraced,
                     double untraced_wall_s) override;

 private:
  /// One configuration row through RunAvailabilityExperiment.
  dynvote::Result<std::vector<dynvote::PolicyResult>> RunConfig(
      const dynvote::PaperConfiguration& config,
      const dynvote::ExperimentOptions& options, dynvote::ObsContext* obs);
  /// Wall seconds of one round of RunConfig over every configuration.
  double TimedRound(const dynvote::ExperimentOptions& options);
  /// Wall seconds of one round through RunReplicatedExperiment with
  /// `replication` (the observability ablations).
  double TimedReplicatedRound(const dynvote::ExperimentOptions& options,
                              const dynvote::ReplicationOptions& replication);

  std::uint64_t seed_;
  Size size_;
  dynvote::ExperimentOptions options_;
  dynvote::PaperNetwork network_;
  std::vector<std::string> policies_;
};

/// The EXPERIMENTS.md sweep, scaled down: RunReplicatedExperiment on
/// configuration A through the batched engine, 64 objects per group, four
/// jobs. One unit per 64-object group.
class SweepBatched final : public Workload {
 public:
  SweepBatched(std::uint64_t seed, Size size);

  dynvote::Status Setup() override;
  std::vector<UnitOutput> RunRound() override;
  double WorkPerRound() const override;
  const char* ThroughputName() const override { return "object_years_per_s"; }
  int Threads() const override;
  std::vector<std::uint64_t> Goldens() const override;
  int CrossCheck(const std::vector<UnitOutput>& round,
                 std::vector<std::string>* notes) override;
  TraceReport Traced(const std::vector<UnitOutput>& untraced,
                     double untraced_wall_s) override;

  static constexpr int kObjects = 64;
  static constexpr int kJobs = 4;

 private:
  dynvote::Result<dynvote::ReplicatedResults> Run(
      int replications, const dynvote::ReplicationOptions& base) const;
  /// Per-group digests of a replicated run's rows.
  std::vector<UnitOutput> GroupUnits(
      const dynvote::Result<dynvote::ReplicatedResults>& results,
      int replications) const;

  std::uint64_t seed_;
  int replications_;
  dynvote::ExperimentSpec spec_;
  dynvote::ProtocolSetFactory factory_;
  dynvote::BatchedProtocolSpec batched_;
};

/// The `dynvote serve` path: open-loop arrivals through the serving model
/// with metrics on, configurations A-H, one thread. One unit per
/// configuration.
class ServeMix final : public Workload {
 public:
  ServeMix(std::uint64_t seed, Size size);

  dynvote::Status Setup() override;
  std::vector<UnitOutput> RunRound() override;
  double WorkPerRound() const override;
  const char* ThroughputName() const override { return "object_years_per_s"; }
  int Threads() const override;
  std::vector<std::uint64_t> Goldens() const override;
  int CrossCheck(const std::vector<UnitOutput>& round,
                 std::vector<std::string>* notes) override;
  TraceReport Traced(const std::vector<UnitOutput>& untraced,
                     double untraced_wall_s) override;

 private:
  /// One configuration through the replicated path, as `serve` runs it.
  UnitOutput RunConfig(std::size_t config,
                       const dynvote::ExperimentOptions& options,
                       const dynvote::ReplicationOptions& replication) const;
  double TimedRound(const dynvote::ExperimentOptions& options,
                    const dynvote::ReplicationOptions& replication) const;

  std::uint64_t seed_;
  dynvote::ExperimentOptions options_;
  dynvote::PaperNetwork network_;
  std::vector<std::string> policies_;
  std::vector<dynvote::ProtocolSetFactory> factories_;  // per configuration
};

/// RunCheck exhaustive, ODV on section3, POR on, four jobs. One unit.
class CheckSection3 final : public Workload {
 public:
  CheckSection3(std::uint64_t seed, Size size);

  dynvote::Status Setup() override;
  std::vector<UnitOutput> RunRound() override;
  double WorkPerRound() const override { return states_; }
  const char* ThroughputName() const override { return "states_per_s"; }
  int Threads() const override { return kJobs; }
  std::vector<std::uint64_t> Goldens() const override;
  int CrossCheck(const std::vector<UnitOutput>& round,
                 std::vector<std::string>* notes) override;
  TraceReport Traced(const std::vector<UnitOutput>& untraced,
                     double untraced_wall_s) override;

  static constexpr int kJobs = 4;

 private:
  static std::uint64_t ReportDigest(const dynvote::check::CheckReport& r);

  std::uint64_t seed_;
  dynvote::check::CheckOptions options_;
  double states_ = 0.0;
};

}  // namespace perfbench
