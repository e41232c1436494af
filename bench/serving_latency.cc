// Serving-model benchmark: runs the open-loop traffic model
// (docs/serving.md) over the paper's eight placements and emits the
// per-protocol messages-per-access and latency percentiles to
// BENCH_serving.json (override with --out=PATH) under the
// dynvote-serving-v1 schema, so successive PRs can track how protocol
// message complexity translates into serving latency.
//
//   {
//     "schema": "dynvote-serving-v1",
//     "unit": "ms",
//     "cores": N,
//     "configs": [
//       {"config": "A", "policies": [
//         {"name": "MCV", "served": N, "rejected": N, "granted": N,
//          "denied": N, "access_messages": N, "refresh_messages": N,
//          "msgs_per_access": X,
//          "latency_ms": {"p50": X, "p90": X, "p99": X, "p999": X,
//                         "max": X},
//          "queue_depth_max": X}, ...]},
//       ...
//     ],
//     "overhead": {"name": "serving_metrics_overhead",
//                  "metrics_on_ns_per_op": X,
//                  "metrics_off_ns_per_op": X, "ratio": X}
//   }
//
// The policy rows are `dynvote serve --json`'s (ReadServingRow and
// AppendServingRowJson in model/open_loop.h), numbers at 17 significant
// digits. "cores" is the hardware thread count of the recording machine.
//
// The overhead entry measures a full serving experiment with metrics
// collection on vs. off in alternating paired rounds (bench_util.h), so
// the ratio CI gates (<= 1.3x) is immune to machine drift. The config
// tables are deterministic — fixed seed, metrics merged in replication
// order — only the overhead timings vary run to run.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/registry.h"
#include "model/experiment.h"
#include "model/open_loop.h"
#include "model/site_profile.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "util/append.h"

namespace dynvote {
namespace {

/// Serving parameters shared by every measurement in this bench: a rate
/// high enough for tight tail percentiles over a short horizon.
ServingOptions BenchServing() {
  ServingOptions serving;
  serving.enabled = true;
  serving.arrival_rate_per_day = 500.0;
  serving.service_time_ms = 1.0;
  serving.msg_cost_ms = 0.1;
  serving.write_fraction = 0.5;
  return serving;
}

/// One serving experiment over a paper placement, metrics into `shard`
/// when non-null. Exits on error: a bench has no caller to report to.
void RunServing(char config, double measured_days, std::uint64_t seed,
                MetricsShard* shard) {
  ExperimentOptions options;
  options.warmup = Days(90);
  options.num_batches = 10;
  options.batch_length = Days(measured_days / 10.0);
  options.seed = seed;
  options.serving = BenchServing();

  ObsContext obs;
  obs.metrics = shard;

  auto network = MakePaperNetwork();
  const PaperConfiguration* pc = PaperConfigurationFor(config);
  if (pc == nullptr) {
    std::cerr << "unknown configuration " << config << "\n";
    std::exit(1);
  }
  ExperimentSpec spec;
  spec.topology = network->topology;
  spec.profiles = network->profiles;
  spec.options = options;
  if (shard != nullptr) spec.obs = &obs;

  auto protocols =
      MakeProtocolSet(PaperProtocolNames(), network->topology, pc->placement);
  if (!protocols.ok()) {
    std::cerr << protocols.status() << "\n";
    std::exit(1);
  }
  auto results = RunAvailabilityExperiment(spec, protocols.MoveValue());
  if (!results.ok()) {
    std::cerr << results.status() << "\n";
    std::exit(1);
  }
}

/// The A-H serving tables: one deterministic run per placement, decoded
/// into the rows `dynvote serve --json` writes (and a console line per
/// protocol).
std::string ConfigsJson() {
  std::string json = "  \"configs\": [";
  const std::string configs = "ABCDEFGH";
  for (char config : configs) {
    MetricsShard shard;
    RunServing(config, /*measured_days=*/180.0, /*seed=*/20260704, &shard);
    json.append(config == configs.front() ? "\n    {" : ",\n    {");
    json.append("\"config\": \"");
    json.push_back(config);
    json.append("\", \"policies\": [");
    std::cout << "configuration " << config << ":\n";
    bool first_policy = true;
    for (const std::string& name : PaperProtocolNames()) {
      const ServingRow row = ReadServingRow(shard, name);
      std::cout << "  " << name << ": "
                << bench::FormatDouble(row.msgs_per_access)
                << " msgs/access, p50 "
                << bench::FormatDouble(row.latency_ms.Quantile(0.50))
                << " ms, p99 "
                << bench::FormatDouble(row.latency_ms.Quantile(0.99))
                << " ms\n";
      json.append(first_policy ? "\n      " : ",\n      ");
      first_policy = false;
      AppendServingRowJson(row, &json);
    }
    json.append("\n    ]}");
  }
  json.append("\n  ],\n");
  return json;
}

/// The gated pair: a serving experiment with metrics collection on vs.
/// off, alternating within every round. Metrics batching (ServingStage
/// accumulates locally and flushes once) is what keeps this ratio small.
std::string OverheadJson(double min_ms) {
  auto run = [](bool collect, std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      MetricsShard shard;
      RunServing('B', /*measured_days=*/60.0, /*seed=*/1 + i,
                 collect ? &shard : nullptr);
    }
  };
  auto [on_r, off_r] = bench::MeasurePairedMinOfRounds(
      min_ms, [&](std::uint64_t n) { run(true, n); },
      [&](std::uint64_t n) { run(false, n); });
  const double ratio = on_r.ns_per_op / off_r.ns_per_op;
  std::cout << "serving_metrics_overhead: on "
            << bench::FormatDouble(on_r.ns_per_op / 1e6) << " ms/run, off "
            << bench::FormatDouble(off_r.ns_per_op / 1e6) << " ms/run, ratio "
            << bench::FormatDouble(ratio) << "x\n";
  std::string json =
      "  \"overhead\": {\"name\": \"serving_metrics_overhead\", "
      "\"metrics_on_ns_per_op\": ";
  AppendDouble(on_r.ns_per_op, &json);
  json.append(", \"metrics_off_ns_per_op\": ");
  AppendDouble(off_r.ns_per_op, &json);
  json.append(", \"ratio\": ");
  AppendDouble(ratio, &json);
  json.append("}\n");
  return json;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_serving.json";
  double min_ms = 200.0;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else if (a.rfind("--min-time-ms=", 0) == 0) {
      min_ms = bench::ParseDoubleFlag("--min-time-ms", a.substr(14));
    } else {
      bench::RejectUnknownFlag(a);
    }
  }

  std::string json;
  json += "{\n  \"schema\": \"";
  json += kServingSchema;
  json += "\",\n  \"unit\": \"ms\",\n  \"cores\": ";
  AppendDecimal(std::thread::hardware_concurrency(), &json);
  json += ",\n";
  json += ConfigsJson();
  json += OverheadJson(min_ms);
  json += "}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json;
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace dynvote

int main(int argc, char** argv) { return dynvote::Main(argc, argv); }
