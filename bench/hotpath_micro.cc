// Microbenchmark of the simulation hot path — connectivity refresh,
// quorum evaluation and the per-event sample/quorum loop — measured
// before vs. after the cached-connectivity / memoized-decision overhaul.
//
// "Before" is reproduced two ways: the pre-overhaul NetworkState and
// topological-closure algorithms are embedded here verbatim as Legacy*
// reference implementations, and the decision memoization is toggled off
// through the same escape hatch as --no-quorum-cache. Either way the
// outputs are identical (asserted by tests); only the time changes.
//
// Results are written to BENCH_hotpath.json (override with --out=PATH) in
// a stable schema so successive PRs can track the perf trajectory:
//
//   {
//     "schema": "dynvote-hotpath-bench-v1",
//     "unit": "ns_per_op",
//     "benchmarks": [
//       {"name": "...", "ns_per_op": N, "ops": N,
//        "baseline": "legacy" | "no-cache" | "trace-off" | "solo-seq",
//        "baseline_ns_per_op": N, "speedup": N},
//       ...
//     ]
//   }
//
// Every entry carries ns_per_op; paired entries also carry their
// baseline's ns_per_op and the speedup ratio. New benchmarks may be
// appended, but existing names and fields must keep their meaning.
//
// All measurements use the min-of-rounds estimator from bench_util.h;
// entries whose speedup a CI gate checks measure both sides in
// alternating paired rounds so scheduling drift cancels out of the
// ratio.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/quorum.h"
#include "core/registry.h"
#include "model/batched_experiment.h"
#include "model/experiment.h"
#include "model/site_profile.h"
#include "net/network_state.h"
#include "obs/async_writer.h"
#include "obs/binary_trace.h"
#include "obs/context.h"
#include "obs/schemas.h"
#include "obs/trace_sink.h"
#include "util/rng.h"
#include "util/site_set.h"

namespace dynvote {
namespace {

// ---------------------------------------------------------------------
// Legacy reference implementations (the seed's algorithms, kept verbatim
// so the before/after comparison stays honest as the library evolves).
// ---------------------------------------------------------------------

/// The pre-overhaul NetworkState: vector<bool> site state, union-find
/// rebuilt lazily, and a fresh vector allocated by every Components()
/// and ComponentOf() call.
class LegacyNetworkState {
 public:
  explicit LegacyNetworkState(std::shared_ptr<const Topology> topology)
      : topology_(std::move(topology)) {
    site_up_.assign(topology_->num_sites(), true);
    repeater_up_.assign(topology_->num_repeaters(), true);
    segment_root_.assign(topology_->num_segments(), 0);
  }

  void SetSiteUp(SiteId site, bool up) {
    if (site_up_[site] != up) {
      site_up_[site] = up;
      dirty_ = true;
    }
  }

  bool IsSiteUp(SiteId site) const { return site_up_[site]; }

  SiteSet ComponentOf(SiteId site) const {
    if (!site_up_[site]) return SiteSet();
    Refresh();
    int root = segment_root_[topology_->SegmentOf(site)];
    SiteSet component;
    for (SiteId s = 0; s < topology_->num_sites(); ++s) {
      if (site_up_[s] && segment_root_[topology_->SegmentOf(s)] == root) {
        component.Add(s);
      }
    }
    return component;
  }

  std::vector<SiteSet> Components() const {
    Refresh();
    std::vector<SiteSet> by_root(topology_->num_segments());
    for (SiteId s = 0; s < topology_->num_sites(); ++s) {
      if (site_up_[s]) {
        by_root[segment_root_[topology_->SegmentOf(s)]].Add(s);
      }
    }
    std::vector<SiteSet> out;
    for (const SiteSet& group : by_root) {
      if (!group.Empty()) out.push_back(group);
    }
    return out;
  }

 private:
  void Refresh() const {
    if (!dirty_) return;
    std::iota(segment_root_.begin(), segment_root_.end(), 0);
    for (const BridgeInfo& b : topology_->bridges()) {
      bool bridge_up = b.gateway_site.has_value()
                           ? site_up_[*b.gateway_site]
                           : repeater_up_[b.repeater];
      if (!bridge_up) continue;
      int ra = FindRoot(b.segment_a);
      int rb = FindRoot(b.segment_b);
      if (ra != rb) segment_root_[rb] = ra;
    }
    for (int seg = 0; seg < topology_->num_segments(); ++seg) {
      segment_root_[seg] = FindRoot(seg);
    }
    dirty_ = false;
  }

  int FindRoot(int segment) const {
    int root = segment;
    while (segment_root_[root] != root) root = segment_root_[root];
    while (segment_root_[segment] != root) {
      int next = segment_root_[segment];
      segment_root_[segment] = root;
      segment = next;
    }
    return root;
  }

  std::shared_ptr<const Topology> topology_;
  std::vector<bool> site_up_;
  std::vector<bool> repeater_up_;
  mutable std::vector<int> segment_root_;
  mutable bool dirty_ = true;
};

/// The pre-overhaul topological closure: the O(|Pm| * |active|) site-pair
/// loop that EvaluateDynamicQuorum used before per-segment mask unions.
SiteSet LegacyTopologicalClosure(const Topology& topology,
                                 SiteSet prev_partition,
                                 SiteSet reachable_copies) {
  SiteSet active_members = prev_partition.Intersect(reachable_copies);
  SiteSet closure;
  for (SiteId r : prev_partition) {
    for (SiteId s : active_members) {
      if (topology.SameSegment(r, s)) {
        closure.Add(r);
        break;
      }
    }
  }
  return closure;
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

struct BenchEntry {
  std::string name;
  double ns_per_op = 0.0;
  std::uint64_t ops = 0;
  // Empty baseline = standalone measurement.
  std::string baseline;
  double baseline_ns_per_op = 0.0;
};

/// Min-of-rounds measurement of a standalone body (bench_util.h).
template <typename Body>
BenchEntry Measure(const std::string& name, double min_ms, Body&& body) {
  bench::RoundsResult r = bench::MeasureMinOfRounds(min_ms, body);
  BenchEntry entry;
  entry.name = name;
  entry.ops = r.ops;
  entry.ns_per_op = r.ns_per_op;
  return entry;
}

/// Paired min-of-rounds measurement: `body` against the baseline it is
/// compared to, alternating within every round so the speedup the JSON
/// reports (and CI gates) is immune to slow machine drift.
template <typename Body, typename Baseline>
BenchEntry MeasurePaired(const std::string& name,
                         const std::string& baseline_name, double min_ms,
                         Body&& body, Baseline&& baseline) {
  auto [main_r, base_r] =
      bench::MeasurePairedMinOfRounds(min_ms, body, baseline);
  BenchEntry entry;
  entry.name = name;
  entry.ops = main_r.ops;
  entry.ns_per_op = main_r.ns_per_op;
  entry.baseline = baseline_name;
  entry.baseline_ns_per_op = base_r.ns_per_op;
  return entry;
}

/// The paper network with a five-copy placement (paper sites 1, 2, 4, 6,
/// 8): copies on every segment side of both repeaters, the configuration
/// that stresses components, closure and quorum paths together.
constexpr SiteSet kFiveCopyPlacement{0, 1, 3, 5, 7};

std::vector<std::unique_ptr<ConsistencyProtocol>> MakePaperProtocols(
    std::shared_ptr<const Topology> topology, SiteSet placement) {
  std::vector<std::unique_ptr<ConsistencyProtocol>> protocols;
  for (const std::string& name : PaperProtocolNames()) {
    auto p = MakeProtocolByName(name, topology, placement);
    if (!p.ok()) {
      std::cerr << "protocol " << name << ": " << p.status() << "\n";
      std::exit(1);
    }
    protocols.push_back(p.MoveValue());
  }
  return protocols;
}

/// One pass of experiment.cc's availability sample over every protocol
/// and every group of communicating sites. Returns the number of granted
/// (protocol, group) pairs so the work cannot be optimized away.
int SampleOnce(
    const NetworkState& net,
    const std::vector<std::unique_ptr<ConsistencyProtocol>>& protocols) {
  int granted = 0;
  for (const auto& protocol : protocols) {
    for (const SiteSet& group : net.Components()) {
      SiteSet copies = group.Intersect(protocol->placement());
      if (copies.Empty()) continue;
      if (protocol->CachedWouldGrant(net, copies.RankMax(),
                                     AccessType::kWrite)) {
        ++granted;
      }
    }
  }
  return granted;
}

// ---------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------

/// Mutate-then-query connectivity: one site flip, then the component
/// list, the dominant pattern of the simulation's network events.
void BenchComponents(double min_ms, std::vector<BenchEntry>* out) {
  auto paper = MakePaperNetwork();
  const int num_sites = paper->topology->num_sites();

  NetworkState net(paper->topology);
  LegacyNetworkState legacy(paper->topology);
  std::uint64_t side_effect = 0;
  out->push_back(MeasurePaired(
      "components_after_flip", "legacy", min_ms,
      [&](std::uint64_t iters) {
        Rng rng(44);
        for (std::uint64_t i = 0; i < iters; ++i) {
          SiteId s = static_cast<SiteId>(rng.NextBounded(num_sites));
          net.SetSiteUp(s, !net.IsSiteUp(s));
          side_effect += net.Components().size();
        }
      },
      [&](std::uint64_t iters) {
        Rng rng(44);
        for (std::uint64_t i = 0; i < iters; ++i) {
          SiteId s = static_cast<SiteId>(rng.NextBounded(num_sites));
          legacy.SetSiteUp(s, !legacy.IsSiteUp(s));
          side_effect += legacy.Components().size();
        }
      }));

  // Query-only ComponentOf: the WouldGrant inner loop between events.
  net.AllUp();
  net.SetSiteUp(2, false);
  net.SetSiteUp(4, false);
  for (SiteId s = 0; s < num_sites; ++s) {
    legacy.SetSiteUp(s, s != 2 && s != 4);  // mirror: 2 and 4 down
  }
  out->push_back(MeasurePaired(
      "component_of_query", "legacy", min_ms,
      [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
          side_effect += net.ComponentOf(static_cast<SiteId>(i % 2)).Size();
        }
      },
      [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
          side_effect +=
              legacy.ComponentOf(static_cast<SiteId>(i % 2)).Size();
        }
      }));
  if (side_effect == 0xDEAD) std::cerr << "";  // keep side_effect live
}

/// EvaluateDynamicQuorum with the topological rule: per-segment mask
/// unions vs. the legacy site-pair closure loop.
void BenchQuorum(double min_ms, std::vector<BenchEntry>* out) {
  auto paper = MakePaperNetwork();
  auto store = ReplicaStore::Make(kFiveCopyPlacement).MoveValue();
  store.Commit(SiteSet{0, 1, 3}, 5, 3, SiteSet{0, 1, 3});
  const SiteSet reachable{0, 1, 2, 3, 4};
  std::int64_t side_effect = 0;

  // Legacy side: same evaluation with the closure recomputed by the pair
  // loop (the rest of the decision is shared, so the delta isolates it).
  out->push_back(MeasurePaired(
      "quorum_topological", "legacy", min_ms,
      [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
          QuorumDecision d =
              EvaluateDynamicQuorum(store, reachable,
                                    TieBreak::kLexicographic,
                                    paper->topology.get());
          side_effect += d.granted + d.counted_set.Size();
        }
      },
      [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
          QuorumDecision d = EvaluateDynamicQuorum(
              store, reachable, TieBreak::kLexicographic, nullptr);
          d.counted_set = LegacyTopologicalClosure(
              *paper->topology, d.prev_partition, d.reachable_copies);
          side_effect += d.granted + d.counted_set.Size();
        }
      }));
  if (side_effect == -1) std::cerr << "";
}

/// The acceptance benchmark: experiment.cc's sample loop over the six
/// paper policies on the five-copy placement, network flips interleaved
/// at a realistic events-per-change ratio, memoization on vs. off.
void BenchSampleLoop(double min_ms, std::vector<BenchEntry>* out) {
  auto paper = MakePaperNetwork();
  const int num_sites = paper->topology->num_sites();
  auto protocols = MakePaperProtocols(paper->topology, kFiveCopyPlacement);
  NetworkState net(paper->topology);
  std::int64_t side_effect = 0;

  auto run = [&](bool cached, std::uint64_t iters) {
    net.AllUp();
    Rng rng(77);
    for (auto& p : protocols) {
      p->Reset();
      p->set_quorum_cache_enabled(cached);
    }
    for (std::uint64_t i = 0; i < iters; ++i) {
      if (i % 16 == 0) {
        // One network change per 16 samples: failures and repairs are
        // rare next to the daily access samples they interleave with.
        SiteId s = static_cast<SiteId>(rng.NextBounded(num_sites));
        net.SetSiteUp(s, !net.IsSiteUp(s));
      }
      side_effect += SampleOnce(net, protocols);
    }
  };

  out->push_back(MeasurePaired(
      "sample_quorum_loop", "no-cache", min_ms,
      [&](std::uint64_t iters) { run(true, iters); },
      [&](std::uint64_t iters) { run(false, iters); }));
  if (side_effect == -1) std::cerr << "";
}

/// One simulated year of `spec` per iteration (seeds 1, 2, ...) through
/// `engine`: RunSoloAvailabilityExperiment pins the solo engine,
/// RunAvailabilityExperiment lets the run pick its engine.
template <typename Engine>
void RunExperimentYears(ExperimentSpec& spec, Engine&& engine,
                        std::uint64_t iters) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    spec.options.seed = 1 + i;
    auto results = engine(
        spec, MakePaperProtocols(spec.topology, kFiveCopyPlacement));
    if (!results.ok()) {
      std::cerr << results.status() << "\n";
      std::exit(1);
    }
  }
}

/// End to end: one simulated year of the discrete-event experiment with
/// all six policies on the five-copy placement. This is the unit the
/// sweeps and --reps multiply by the thousands.
///
/// experiment_year_5copies pins both sides to the solo engine, cache on
/// vs. off, so the ratio stays the memoization gain it always measured.
/// experiment_year_routed (ungated) is what a caller gets from
/// RunAvailabilityExperiment — an untraced run of the paper policies
/// goes to the batched engine as a batch of one — against the solo
/// engine: the N=1 routing gain. The traced rows below stay on the solo
/// engine, so their ns_per_op over this row's is the cost of tracing
/// including the fallback.
void BenchExperimentYear(double min_ms, std::vector<BenchEntry>* out) {
  auto paper = MakePaperNetwork();
  ExperimentSpec spec;
  spec.topology = paper->topology;
  spec.profiles = paper->profiles;
  spec.options.warmup = Days(0);
  spec.options.num_batches = 1;
  spec.options.batch_length = Years(1);

  auto solo = [&](bool cached, std::uint64_t iters) {
    spec.options.quorum_cache = cached;
    RunExperimentYears(spec, RunSoloAvailabilityExperiment, iters);
  };
  out->push_back(MeasurePaired(
      "experiment_year_5copies", "no-cache", min_ms,
      [&](std::uint64_t iters) { solo(true, iters); },
      [&](std::uint64_t iters) { solo(false, iters); }));

  out->push_back(MeasurePaired(
      "experiment_year_routed", "solo-seq", min_ms,
      [&](std::uint64_t iters) {
        spec.options.quorum_cache = true;
        RunExperimentYears(spec, RunAvailabilityExperiment, iters);
      },
      [&](std::uint64_t iters) { solo(true, iters); }));
}

/// The batched engine against the solo engine on one 64-object batch:
/// aggregate ns per object-year for 64 seeds run back to back by the
/// batched engine, against the same 64 seeds run sequentially through
/// the solo engine ("solo-seq", RunSoloAvailabilityExperiment — not the
/// routed entry point, which would itself pick the batched engine). The
/// objects share nothing, so the gain is per-object engine cost, not
/// amortization over the batch. The bit-identity contract makes the two
/// sides produce identical statistics, so the ratio is pure engine
/// overhead; CI gates it at >= 3.0x.
void BenchBatchedEngine(double min_ms, std::vector<BenchEntry>* out) {
  auto paper = MakePaperNetwork();
  ExperimentSpec spec;
  spec.topology = paper->topology;
  spec.profiles = paper->profiles;
  spec.options.warmup = Days(0);
  spec.options.num_batches = 1;
  spec.options.batch_length = Years(1);

  constexpr int kObjects = 64;
  BatchedProtocolSpec batched_spec{PaperProtocolNames(), kFiveCopyPlacement};

  auto run_batched = [&](std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      std::vector<std::uint64_t> seeds;
      seeds.reserve(kObjects);
      for (int k = 0; k < kObjects; ++k) {
        seeds.push_back(1 + i * kObjects + static_cast<std::uint64_t>(k));
      }
      auto results = RunBatchedAvailabilityExperiment(spec, batched_spec,
                                                      seeds);
      if (!results.ok()) {
        std::cerr << results.status() << "\n";
        std::exit(1);
      }
    }
  };
  auto run_solo = [&](std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      for (int k = 0; k < kObjects; ++k) {
        spec.options.seed = 1 + i * kObjects + static_cast<std::uint64_t>(k);
        auto protocols =
            MakePaperProtocols(paper->topology, kFiveCopyPlacement);
        auto results =
            RunSoloAvailabilityExperiment(spec, std::move(protocols));
        if (!results.ok()) {
          std::cerr << results.status() << "\n";
          std::exit(1);
        }
      }
    }
  };

  auto [batched, solo] =
      bench::MeasurePairedMinOfRounds(min_ms, run_batched, run_solo);
  BenchEntry entry;
  entry.name = "engine_batched_n64";
  // Normalize both sides to ns per object-year (one iteration = 64).
  entry.ops = batched.ops * kObjects;
  entry.ns_per_op = batched.ns_per_op / kObjects;
  entry.baseline = "solo-seq";
  entry.baseline_ns_per_op = solo.ns_per_op / kObjects;
  out->push_back(entry);
}

/// Tracing overhead on the same experiment-year unit: observability
/// disabled (instrumentation reduces to one never-taken branch per
/// site), a bounded in-memory ring sink, full JSONL serialization, and
/// the binary encoder paged through the async writer thread. The traced
/// entries report their slowdown against the off run via the
/// "trace-off" baseline; CI gates experiment_year_trace_binary_async at
/// 1.3x of trace-off. Every side runs the solo engine — the only one that
/// traces — so trace-off is the like-for-like untraced baseline.
void BenchTracingOverhead(double min_ms, std::vector<BenchEntry>* out) {
  auto paper = MakePaperNetwork();
  ExperimentSpec spec;
  spec.topology = paper->topology;
  spec.profiles = paper->profiles;
  spec.options.warmup = Days(0);
  spec.options.num_batches = 1;
  spec.options.batch_length = Years(1);

  auto run = [&](ObsContext* obs, std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      spec.options.seed = 1 + i;
      spec.obs = obs;
      auto protocols =
          MakePaperProtocols(paper->topology, kFiveCopyPlacement);
      auto results =
          RunSoloAvailabilityExperiment(spec, std::move(protocols));
      if (!results.ok()) {
        std::cerr << results.status() << "\n";
        std::exit(1);
      }
    }
  };

  // The gated pair — trace-off and the shipping binary pipeline — is
  // measured with the paired alternating-rounds estimator (bench_util.h)
  // so scheduling drift cancels out of the ratio the CI gate checks.
  std::ostringstream binary_buffer;
  StreamPageSink page_sink(&binary_buffer);
  AsyncTraceSink async_sink(&page_sink);
  BinaryTraceSink binary_sink(&async_sink);
  ObsContext binary_obs;
  binary_obs.sink = &binary_sink;
  auto run_binary = [&](std::uint64_t iters) {
    // Rewind (rather than reset) the buffer so the probe measures the
    // pipeline: a fresh str() would make the stream re-grow its buffer
    // every iteration, charging allocator churn a real file run never
    // pays. Rewinding is only safe while the writer is parked, so it
    // happens once per round, outside the timed iterations' async
    // writes; the Flush() draining the writer likewise closes the
    // round rather than each iteration — a real traced run drains once
    // before closing the file, not per simulated year.
    binary_buffer.seekp(0);
    for (std::uint64_t i = 0; i < iters; ++i) {
      spec.options.seed = 1 + i;
      spec.obs = &binary_obs;
      auto protocols =
          MakePaperProtocols(paper->topology, kFiveCopyPlacement);
      auto results =
          RunSoloAvailabilityExperiment(spec, std::move(protocols));
      if (!results.ok()) {
        std::cerr << results.status() << "\n";
        std::exit(1);
      }
    }
    binary_sink.Flush();
  };

  auto [off_r, binary_r] = bench::MeasurePairedMinOfRounds(
      min_ms, [&](std::uint64_t n) { run(nullptr, n); }, run_binary);

  BenchEntry off;
  off.name = "experiment_year_trace_off";
  off.ops = off_r.ops;
  off.ns_per_op = off_r.ns_per_op;

  RingTraceSink ring_sink;
  ObsContext ring_obs;
  ring_obs.sink = &ring_sink;
  BenchEntry ring =
      Measure("experiment_year_trace_ring", min_ms,
              [&](std::uint64_t iters) { run(&ring_obs, iters); });

  std::ostringstream trace_buffer;
  JsonlTraceSink jsonl_sink(&trace_buffer);
  ObsContext jsonl_obs;
  jsonl_obs.sink = &jsonl_sink;
  BenchEntry jsonl =
      Measure("experiment_year_trace_jsonl", min_ms,
              [&](std::uint64_t iters) {
                for (std::uint64_t i = 0; i < iters; ++i) {
                  // Rewind (rather than reset) the buffer so the probe
                  // measures serialization: a fresh str() would make the
                  // stream re-grow its buffer every iteration, charging
                  // allocator churn a real file run never pays.
                  trace_buffer.seekp(0);
                  spec.options.seed = 1 + i;
                  spec.obs = &jsonl_obs;
                  auto protocols =
                      MakePaperProtocols(paper->topology, kFiveCopyPlacement);
                  auto results =
                      RunSoloAvailabilityExperiment(spec, std::move(protocols));
                  if (!results.ok()) {
                    std::cerr << results.status() << "\n";
                    std::exit(1);
                  }
                }
              });

  // The shipping pipeline (binary encoding into pages, drained by a
  // writer thread into an in-memory stream so the probe measures the
  // pipeline, not this machine's disk) was measured in the alternating
  // rounds above.
  if (!binary_sink.ok()) {
    std::cerr << "binary trace pipeline failed: " << binary_sink.error()
              << "\n";
    std::exit(1);
  }
  BenchEntry binary;
  binary.name = "experiment_year_trace_binary_async";
  binary.ops = binary_r.ops;
  binary.ns_per_op = binary_r.ns_per_op;

  ring.baseline = "trace-off";
  ring.baseline_ns_per_op = off.ns_per_op;
  jsonl.baseline = "trace-off";
  jsonl.baseline_ns_per_op = off.ns_per_op;
  binary.baseline = "trace-off";
  binary.baseline_ns_per_op = off.ns_per_op;
  out->push_back(off);
  out->push_back(ring);
  out->push_back(jsonl);
  out->push_back(binary);
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

std::string ToJson(const std::vector<BenchEntry>& entries) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kHotpathBenchSchema << "\",\n"
     << "  \"unit\": \"ns_per_op\",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    os << "    {\"name\": \"" << e.name << "\", \"ns_per_op\": "
       << FormatDouble(e.ns_per_op) << ", \"ops\": " << e.ops;
    if (!e.baseline.empty()) {
      os << ", \"baseline\": \"" << e.baseline
         << "\", \"baseline_ns_per_op\": "
         << FormatDouble(e.baseline_ns_per_op) << ", \"speedup\": "
         << FormatDouble(e.baseline_ns_per_op / e.ns_per_op);
    }
    os << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_hotpath.json";
  double min_ms = 200.0;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else if (a.rfind("--min-time-ms=", 0) == 0) {
      min_ms = std::stod(a.substr(14));
    }
  }

  std::vector<BenchEntry> entries;
  BenchComponents(min_ms, &entries);
  BenchQuorum(min_ms, &entries);
  BenchSampleLoop(min_ms, &entries);
  BenchExperimentYear(min_ms, &entries);
  BenchBatchedEngine(min_ms, &entries);
  BenchTracingOverhead(min_ms, &entries);

  std::cout << "hotpath microbenchmarks (ns/op, baseline, speedup):\n";
  for (const BenchEntry& e : entries) {
    std::cout << "  " << e.name << ": " << FormatDouble(e.ns_per_op)
              << " ns/op";
    if (!e.baseline.empty()) {
      std::cout << "  [" << e.baseline << ": "
                << FormatDouble(e.baseline_ns_per_op) << " ns/op, speedup "
                << FormatDouble(e.baseline_ns_per_op / e.ns_per_op) << "x]";
    }
    std::cout << "\n";
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << ToJson(entries);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace dynvote

int main(int argc, char** argv) { return dynvote::Main(argc, argv); }
