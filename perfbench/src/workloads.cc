#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>

#include "check/harness.h"
#include "check/topologies.h"
#include "core/registry.h"
#include "goldens.h"
#include "util/thread_pool.h"

namespace perfbench {

using dynvote::ExperimentOptions;
using dynvote::PolicyResult;
using dynvote::ReplicationOptions;
using dynvote::Result;
using dynvote::Status;

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec and would
  // report the launching process's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Digest::Bytes(std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash_ ^= c;
    hash_ *= 1099511628211ULL;
  }
  U64(bytes.size());  // length-delimit consecutive fields
}

void Digest::U64(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xFF;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::F64(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  U64(bits);
}

void AddRows(const std::vector<PolicyResult>& rows, Digest* digest) {
  for (const PolicyResult& r : rows) {
    digest->Bytes(r.name);
    digest->F64(r.unavailability);
    digest->U64(static_cast<std::uint64_t>(r.stats.num_batches));
    digest->F64(r.stats.mean);
    digest->F64(r.stats.stddev);
    digest->F64(r.stats.ci95_halfwidth);
    digest->F64(r.mean_unavailable_duration);
    digest->U64(static_cast<std::uint64_t>(r.num_unavailable_periods));
    digest->U64(r.accesses_attempted);
    digest->U64(r.accesses_granted);
    for (int k = 0; k < dynvote::kNumMessageKinds; ++k) {
      digest->U64(r.messages.count(static_cast<dynvote::MessageKind>(k)));
    }
    digest->F64(r.measured_time);
    digest->U64(r.dual_majority_instants);
    digest->F64(r.time_to_first_outage);
  }
}

RowMatch CompareRows(const std::vector<PolicyResult>& a,
                     const std::vector<PolicyResult>& b) {
  if (a.size() != b.size()) return RowMatch::kDifferent;
  bool exact = true;
  auto close = [&exact](double x, double y) {
    if (x == y) return true;
    exact = false;
    return std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y));
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    const PolicyResult& x = a[i];
    const PolicyResult& y = b[i];
    bool same = x.name == y.name && x.stats.num_batches == y.stats.num_batches &&
                x.num_unavailable_periods == y.num_unavailable_periods &&
                x.accesses_attempted == y.accesses_attempted &&
                x.accesses_granted == y.accesses_granted &&
                x.dual_majority_instants == y.dual_majority_instants;
    for (int k = 0; same && k < dynvote::kNumMessageKinds; ++k) {
      const auto kind = static_cast<dynvote::MessageKind>(k);
      same = x.messages.count(kind) == y.messages.count(kind);
    }
    same = same && close(x.unavailability, y.unavailability) &&
           close(x.stats.mean, y.stats.mean) &&
           close(x.stats.stddev, y.stats.stddev) &&
           close(x.stats.ci95_halfwidth, y.stats.ci95_halfwidth) &&
           close(x.mean_unavailable_duration, y.mean_unavailable_duration) &&
           close(x.measured_time, y.measured_time) &&
           close(x.time_to_first_outage, y.time_to_first_outage);
    if (!same) return RowMatch::kDifferent;
  }
  return exact ? RowMatch::kExact : RowMatch::kLastBits;
}

namespace {

std::vector<std::uint64_t> LookupGoldens(const char* workload, Size size) {
  for (const GoldenEntry& entry : GoldenTable()) {
    if (std::strcmp(entry.workload, workload) == 0 &&
        entry.small == (size == Size::kSmall)) {
      return entry.digests;
    }
  }
  return {};
}

std::uint64_t RowsDigest(const std::vector<PolicyResult>& rows) {
  Digest d;
  AddRows(rows, &d);
  return d.value();
}

Result<std::vector<std::unique_ptr<dynvote::ConsistencyProtocol>>>
MakeProtocols(const std::vector<std::string>& policies,
              const std::shared_ptr<const dynvote::Topology>& topology,
              dynvote::SiteSet placement) {
  std::vector<std::unique_ptr<dynvote::ConsistencyProtocol>> protocols;
  protocols.reserve(policies.size());
  for (const std::string& name : policies) {
    auto p = dynvote::MakeProtocolByName(name, topology, placement);
    if (!p.ok()) return p.status();
    protocols.push_back(p.MoveValue());
  }
  return protocols;
}

/// Starts a pool of `jobs` workers, runs `first_unit` on it and joins:
/// the pool part of every workload's set-up.
void StartPool(int jobs, const std::function<void()>& first_unit) {
  dynvote::ThreadPool pool(jobs);
  pool.Submit(first_unit);
  pool.Wait();
}

}  // namespace

std::string DigestHex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// ---------------------------------------------------------------------
// paper_grid
// ---------------------------------------------------------------------

PaperGrid::PaperGrid(std::uint64_t seed, Size size) : seed_(seed), size_(size) {
  options_.warmup = dynvote::Days(360);
  options_.num_batches = 30;
  // 30 batches of 5 years, a quarter of the 600-year reference length,
  // so a run holds a dozen rounds and their median outlasts bursts of
  // machine noise.
  options_.batch_length =
      size == Size::kFull ? dynvote::Years(5) : dynvote::Years(0.2);
  options_.seed = seed;
}

Status PaperGrid::Setup() {
  auto network = dynvote::MakePaperNetwork();
  if (!network.ok()) return network.status();
  network_ = network.MoveValue();
  policies_ = dynvote::PaperProtocolNames();
  for (const dynvote::PaperConfiguration& c :
       dynvote::PaperConfigurations()) {
    auto protocols = MakeProtocols(policies_, network_.topology, c.placement);
    if (!protocols.ok()) return protocols.status();
  }
  return Status::OK();
}

Result<std::vector<PolicyResult>> PaperGrid::RunConfig(
    const dynvote::PaperConfiguration& config,
    const ExperimentOptions& options, dynvote::ObsContext* obs) {
  auto protocols = MakeProtocols(policies_, network_.topology, config.placement);
  if (!protocols.ok()) return protocols.status();
  dynvote::ExperimentSpec spec;
  spec.topology = network_.topology;
  spec.profiles = network_.profiles;
  spec.options = options;
  spec.obs = obs;
  return dynvote::RunAvailabilityExperiment(spec, protocols.MoveValue());
}

std::vector<UnitOutput> PaperGrid::RunRound() {
  std::vector<UnitOutput> units;
  for (const dynvote::PaperConfiguration& c :
       dynvote::PaperConfigurations()) {
    UnitOutput unit;
    unit.name = std::string(1, c.label);
    auto rows = RunConfig(c, options_, nullptr);
    if (rows.ok()) {
      unit.digest = RowsDigest(*rows);
    } else {
      unit.status = rows.status();
    }
    units.push_back(std::move(unit));
  }
  return units;
}

double PaperGrid::TimedRound(const ExperimentOptions& options) {
  const Clock::time_point t0 = Clock::now();
  for (const dynvote::PaperConfiguration& c :
       dynvote::PaperConfigurations()) {
    (void)RunConfig(c, options, nullptr);
  }
  return SecondsSince(t0);
}

double PaperGrid::TimedReplicatedRound(const ExperimentOptions& options,
                                       const ReplicationOptions& replication) {
  const Clock::time_point t0 = Clock::now();
  for (const dynvote::PaperConfiguration& c :
       dynvote::PaperConfigurations()) {
    (void)dynvote::RunReplicatedPaperExperiment(c.label, policies_, options,
                                                replication);
  }
  return SecondsSince(t0);
}

int PaperGrid::Threads() const { return 1; }

double PaperGrid::WorkPerRound() const {
  const double years = dynvote::ToYears(
      options_.warmup + options_.batch_length * options_.num_batches);
  return years * static_cast<double>(dynvote::PaperConfigurations().size());
}

std::vector<std::uint64_t> PaperGrid::Goldens() const {
  if (seed_ != kGoldenSeed) return {};
  return LookupGoldens("paper_grid", size_);
}

int PaperGrid::CrossCheck(const std::vector<UnitOutput>& round,
                          std::vector<std::string>* notes) {
  // objects=1 vs objects=64: the batched engine must reproduce a sampled
  // row of the solo engine.
  const auto& configs = dynvote::PaperConfigurations();
  const std::size_t c = seed_ % configs.size();
  auto solo = RunConfig(configs[c], options_, nullptr);
  dynvote::ExperimentSpec spec;
  spec.topology = network_.topology;
  spec.profiles = network_.profiles;
  spec.options = options_;
  auto batched = dynvote::RunBatchedAvailabilityExperiment(
      spec, {policies_, configs[c].placement}, {seed_});
  const RowMatch match = solo.ok() && batched.ok() && batched->size() == 1
                             ? CompareRows(*solo, batched->front())
                             : RowMatch::kDifferent;
  if (match == RowMatch::kLastBits) {
    notes->push_back("paper_grid: batched row " + round[c].name +
                     " differs from solo in the last bits");
  }
  if (match == RowMatch::kDifferent || RowsDigest(*solo) != round[c].digest) {
    notes->push_back("paper_grid: batched engine differs from solo on row " +
                     round[c].name);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------
// sweep_batched
// ---------------------------------------------------------------------

SweepBatched::SweepBatched(std::uint64_t seed, Size size)
    : seed_(seed), replications_(size == Size::kFull ? 2048 : 2 * kObjects) {
  spec_.options.warmup = dynvote::Days(360);
  spec_.options.num_batches = 10;
  spec_.options.batch_length = dynvote::Years(0.5);  // 5-year horizon
  spec_.options.seed = seed;
}

Status SweepBatched::Setup() {
  auto network = dynvote::MakePaperNetwork();
  if (!network.ok()) return network.status();
  const dynvote::SiteSet placement =
      dynvote::PaperConfigurations().front().placement;  // A: sites 1,2,4
  spec_.topology = network->topology;
  spec_.profiles = network->profiles;
  std::shared_ptr<const dynvote::Topology> topology = network->topology;
  std::vector<std::string> policies = dynvote::PaperProtocolNames();
  factory_ = [topology, placement, policies] {
    return MakeProtocols(policies, topology, placement);
  };
  batched_ = dynvote::BatchedProtocolSpec{policies, placement};
  Status first;
  StartPool(kJobs, [this, &first] { first = factory_().status(); });
  return first;
}

Result<dynvote::ReplicatedResults> SweepBatched::Run(
    int replications, const ReplicationOptions& base) const {
  ReplicationOptions replication = base;
  replication.replications = replications;
  return dynvote::RunReplicatedExperiment(spec_, factory_, replication,
                                          &batched_);
}

std::vector<UnitOutput> SweepBatched::GroupUnits(
    const Result<dynvote::ReplicatedResults>& results,
    int replications) const {
  std::vector<UnitOutput> units;
  for (int lo = 0; lo < replications; lo += kObjects) {
    UnitOutput unit;
    unit.name = "group" + std::to_string(lo / kObjects);
    if (!results.ok()) {
      unit.status = results.status();
    } else {
      Digest d;
      const int hi = std::min(replications, lo + kObjects);
      for (int r = lo; r < hi; ++r) {
        d.U64(results->seeds[static_cast<std::size_t>(r)]);
        AddRows(results->per_replication[static_cast<std::size_t>(r)], &d);
      }
      unit.digest = d.value();
    }
    units.push_back(std::move(unit));
  }
  return units;
}

std::vector<UnitOutput> SweepBatched::RunRound() {
  ReplicationOptions replication;
  replication.jobs = kJobs;
  replication.objects = kObjects;
  return GroupUnits(Run(replications_, replication), replications_);
}

int SweepBatched::Threads() const { return kJobs; }

double SweepBatched::WorkPerRound() const {
  const ExperimentOptions& o = spec_.options;
  return dynvote::ToYears(o.warmup + o.batch_length * o.num_batches) *
         replications_;
}

std::vector<std::uint64_t> SweepBatched::Goldens() const {
  if (seed_ != kGoldenSeed) return {};
  return LookupGoldens("sweep_batched", replications_ > 2 * kObjects
                                            ? Size::kFull
                                            : Size::kSmall);
}

int SweepBatched::CrossCheck(const std::vector<UnitOutput>& round,
                             std::vector<std::string>* notes) {
  int failed = 0;
  // jobs=1 vs jobs=4 on the first two groups.
  ReplicationOptions solo_jobs;
  solo_jobs.jobs = 1;
  solo_jobs.objects = kObjects;
  const int sample = std::min(replications_, 2 * kObjects);
  std::vector<UnitOutput> j1 = GroupUnits(Run(sample, solo_jobs), sample);
  for (std::size_t g = 0; g < j1.size(); ++g) {
    if (!j1[g].status.ok() || j1[g].digest != round[g].digest) {
      notes->push_back("sweep_batched: jobs=1 differs from jobs=4 on " +
                       round[g].name);
      ++failed;
    }
  }
  // objects=1 vs objects=64 on the first group.
  ReplicationOptions batched_objects;
  batched_objects.jobs = kJobs;
  batched_objects.objects = kObjects;
  ReplicationOptions solo_objects = batched_objects;
  solo_objects.objects = 1;
  const int group = std::min(replications_, kObjects);
  auto batched = Run(group, batched_objects);
  auto solo = Run(group, solo_objects);
  if (!batched.ok() || !solo.ok() ||
      GroupUnits(batched, group)[0].digest != round[0].digest) {
    notes->push_back("sweep_batched: first group not reproducible");
    return failed + 1;
  }
  for (int r = 0; r < group; ++r) {
    const RowMatch match =
        CompareRows(solo->per_replication[static_cast<std::size_t>(r)],
                    batched->per_replication[static_cast<std::size_t>(r)]);
    if (match == RowMatch::kLastBits) {
      notes->push_back("sweep_batched: objects=1 replication " +
                       std::to_string(r) +
                       " differs from objects=64 in the last bits");
    } else if (match == RowMatch::kDifferent) {
      notes->push_back("sweep_batched: objects=1 replication " +
                       std::to_string(r) + " differs from objects=64");
      ++failed;
    }
  }
  return failed;
}

// ---------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------

namespace {

dynvote::ServingOptions ServeMixServing() {
  dynvote::ServingOptions serving;
  serving.enabled = true;
  serving.arrival_rate_per_day = 500.0;
  serving.write_fraction = 0.5;
  serving.service_time_ms = 1.0;
  serving.msg_cost_ms = 0.1;
  return serving;
}

}  // namespace

ServeMix::ServeMix(std::uint64_t seed, Size size) : seed_(seed) {
  // `dynvote serve` shape (warm-up, 20 batches) at a quarter of a 360-day
  // warm-up and a 0.2-year horizon, so a round stays near half a second.
  options_.warmup = dynvote::Days(size == Size::kFull ? 90 : 30);
  options_.num_batches = 20;
  options_.batch_length =
      dynvote::Years(size == Size::kFull ? 0.05 / 20 : 0.02 / 20);
  options_.seed = seed;
  options_.serving = ServeMixServing();
}

Status ServeMix::Setup() {
  auto network = dynvote::MakePaperNetwork();
  if (!network.ok()) return network.status();
  network_ = network.MoveValue();
  policies_ = dynvote::PaperProtocolNames();
  factories_.clear();
  for (const dynvote::PaperConfiguration& c :
       dynvote::PaperConfigurations()) {
    std::shared_ptr<const dynvote::Topology> topology = network_.topology;
    const dynvote::SiteSet placement = c.placement;
    std::vector<std::string> policies = policies_;
    factories_.push_back([topology, placement, policies] {
      return MakeProtocols(policies, topology, placement);
    });
  }
  return factories_.front()().status();
}

UnitOutput ServeMix::RunConfig(std::size_t config,
                               const ExperimentOptions& options,
                               const ReplicationOptions& replication) const {
  UnitOutput unit;
  unit.name = std::string(1, dynvote::PaperConfigurations()[config].label);
  dynvote::ExperimentSpec spec;
  spec.topology = network_.topology;
  spec.profiles = network_.profiles;
  spec.options = options;
  auto results =
      dynvote::RunReplicatedExperiment(spec, factories_[config], replication);
  if (!results.ok()) {
    unit.status = results.status();
    return unit;
  }
  Digest d;
  for (const auto& rows : results->per_replication) AddRows(rows, &d);
  d.Bytes(results->metrics.ToJson());
  unit.digest = d.value();
  return unit;
}

std::vector<UnitOutput> ServeMix::RunRound() {
  ReplicationOptions replication;
  replication.collect_metrics = true;  // `serve` always meters
  std::vector<UnitOutput> units;
  for (std::size_t c = 0; c < factories_.size(); ++c) {
    units.push_back(RunConfig(c, options_, replication));
  }
  return units;
}

double ServeMix::TimedRound(const ExperimentOptions& options,
                            const ReplicationOptions& replication) const {
  const Clock::time_point t0 = Clock::now();
  for (std::size_t c = 0; c < factories_.size(); ++c) {
    (void)RunConfig(c, options, replication);
  }
  return SecondsSince(t0);
}

int ServeMix::Threads() const { return 1; }

double ServeMix::WorkPerRound() const {
  return dynvote::ToYears(options_.warmup +
                          options_.batch_length * options_.num_batches) *
         static_cast<double>(dynvote::PaperConfigurations().size());
}

std::vector<std::uint64_t> ServeMix::Goldens() const {
  if (seed_ != kGoldenSeed) return {};
  return LookupGoldens("serve_mix", options_.warmup < dynvote::Days(90)
                                        ? Size::kSmall
                                        : Size::kFull);
}

int ServeMix::CrossCheck(const std::vector<UnitOutput>& /*round*/,
                         std::vector<std::string>* notes) {
  // jobs=1 vs jobs=4 byte equality of rows and metrics over four short
  // replications of a sampled configuration.
  ExperimentOptions options = options_;
  options.warmup = dynvote::Days(30);
  options.batch_length = dynvote::Years(0.02 / 20);
  const std::size_t c = seed_ % factories_.size();
  ReplicationOptions replication;
  replication.replications = 4;
  replication.collect_metrics = true;
  replication.jobs = 1;
  const UnitOutput j1 = RunConfig(c, options, replication);
  replication.jobs = 4;
  const UnitOutput j4 = RunConfig(c, options, replication);
  if (!j1.status.ok() || !j4.status.ok() || j1.digest != j4.digest) {
    notes->push_back("serve_mix: jobs=1 differs from jobs=4 on " + j1.name);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------
// check_section3
// ---------------------------------------------------------------------

CheckSection3::CheckSection3(std::uint64_t seed, Size size) : seed_(seed) {
  options_.protocol = "ODV";
  options_.topology = "section3";
  // One past the recorded depth-8 frontier.
  options_.depth = size == Size::kFull ? 9 : 5;
  options_.jobs = kJobs;
  options_.por = true;
}

Status CheckSection3::Setup() {
  auto topology = dynvote::check::MakeCheckTopology(options_.topology);
  if (!topology.ok()) return topology.status();
  auto harness = dynvote::check::CheckHarness::Make(
      *topology, (*topology)->AllSites(), options_.protocol, options_.policy);
  if (!harness.ok()) return harness.status();
  StartPool(kJobs, [] {});
  return Status::OK();
}

std::uint64_t CheckSection3::ReportDigest(
    const dynvote::check::CheckReport& r) {
  Digest d;
  d.U64(r.counterexample.has_value() ? 1 : 0);
  d.U64(r.states_visited);
  d.U64(r.transitions);
  d.U64(r.commits);
  d.U64(r.reads_checked);
  d.U64(r.visited_digest);
  return d.value();
}

std::vector<UnitOutput> CheckSection3::RunRound() {
  UnitOutput unit;
  unit.name = options_.topology + "@" + std::to_string(options_.depth);
  auto report = dynvote::check::RunCheck(options_);
  if (!report.ok()) {
    unit.status = report.status();
  } else {
    if (report->counterexample.has_value()) {
      unit.status = Status::Internal("unexpected invariant violation");
    }
    unit.digest = ReportDigest(*report);
    states_ = static_cast<double>(report->states_visited);
  }
  return {unit};
}

std::vector<std::uint64_t> CheckSection3::Goldens() const {
  return LookupGoldens("check_section3",
                       options_.depth == 9 ? Size::kFull : Size::kSmall);
}

int CheckSection3::CrossCheck(const std::vector<UnitOutput>& /*round*/,
                              std::vector<std::string>* notes) {
  // POR on/off must visit the same state set.
  dynvote::check::CheckOptions on = options_;
  on.depth = std::min(options_.depth, 7);
  dynvote::check::CheckOptions off = on;
  off.por = false;
  auto a = dynvote::check::RunCheck(on);
  auto b = dynvote::check::RunCheck(off);
  if (!a.ok() || !b.ok() || a->states_visited != b->states_visited ||
      a->visited_digest != b->visited_digest) {
    notes->push_back("check_section3: POR on/off visit different states");
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "paper_grid", "sweep_batched", "serve_mix", "check_section3"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, Size size) {
  if (name == "paper_grid") return std::make_unique<PaperGrid>(seed, size);
  if (name == "sweep_batched") {
    return std::make_unique<SweepBatched>(seed, size);
  }
  if (name == "serve_mix") return std::make_unique<ServeMix>(seed, size);
  if (name == "check_section3") {
    return std::make_unique<CheckSection3>(seed, size);
  }
  return nullptr;
}

}  // namespace perfbench
