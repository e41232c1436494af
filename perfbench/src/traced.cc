// Traced runs: per-layer numbers taken from outside the library, four
// ways (see README.md for the metric table):
//   - recording: RecordingSink + a MetricsShard attached via
//     ExperimentSpec::obs charge the wall gaps between callbacks to the
//     emitting layer and keep the inputs of each call;
//   - replay: recorded inputs go back through one public function at a
//     time, timed, and each replayed call must reproduce its recorded
//     result (a mismatch fails the traced run);
//   - decomposition: the batched sweep and the checker are rebuilt from
//     the public pieces the library composes, each piece timed;
//   - ablation: existing public options switched off or on.

#include <algorithm>
#include <array>
#include <functional>
#include <numeric>
#include <sstream>
#include <thread>

#include "check/action.h"
#include "check/harness.h"
#include "check/topologies.h"
#include "check/visited_set.h"
#include "core/quorum.h"
#include "net/network_state.h"
#include "obs/async_writer.h"
#include "obs/binary_trace.h"
#include "obs/context.h"
#include "recording_sink.h"
#include "repl/replica_store.h"
#include "sim/calendar_queue.h"
#include "sim/event_queue.h"
#include "stats/replication_stats.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using dynvote::ExperimentOptions;
using dynvote::PolicyResult;
using dynvote::ReplicationOptions;
using dynvote::SiteSet;
using dynvote::Status;

namespace {

/// Bound on each recorded input list (flips, quorum evaluations,
/// dispatch times per unit).
constexpr std::size_t kMaxRecords = std::size_t{1} << 19;

/// Pending events of one solo-engine object (a failure or repair event
/// per site plus the access stream): the hold size of the queue replays.
constexpr int kSoloPending = 16;

/// Replays run in chunks so per-call inputs are built outside the timer.
constexpr std::size_t kChunk = 4096;

struct Replay {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  std::uint64_t mismatches = 0;

  double ns_per_call() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median variant wall over median base wall, alternating the two sides
/// for `pairs` rounds so machine drift hits both alike.
double PairedRatio(const std::function<double()>& base,
                   const std::function<double()>& variant, int pairs = 2) {
  std::vector<double> base_walls;
  std::vector<double> variant_walls;
  for (int i = 0; i < pairs; ++i) {
    base_walls.push_back(base());
    variant_walls.push_back(variant());
  }
  return Ratio(Median(variant_walls), Median(base_walls));
}

/// Ablations run at a quarter of the round's simulated length.
ExperimentOptions Quarter(ExperimentOptions options) {
  options.warmup /= 4;
  options.batch_length /= 4;
  return options;
}

void Set(MetricMap* m, const std::string& name, double value,
         const char* unit) {
  (*m)[name] = Metric{value, unit};
}

// ---------------------------------------------------------------------
// Replays
// ---------------------------------------------------------------------

/// Recorded flips into NetworkState::SetSiteUp/SetRepeaterUp +
/// Components(); the component masks must match. Each unit restarts from
/// the all-up state an experiment starts in.
Replay ReplayFlips(const std::shared_ptr<const dynvote::Topology>& topology,
                   const std::vector<FlipRecord>& flips) {
  Replay out;
  std::vector<std::array<std::uint64_t, 8>> got(flips.size());
  std::vector<std::size_t> got_n(flips.size());
  std::size_t i = 0;
  while (i < flips.size()) {
    std::size_t end = i;
    while (end < flips.size() && flips[end].unit == flips[i].unit) ++end;
    dynvote::NetworkState net(topology);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = i; k < end; ++k) {
      const FlipRecord& f = flips[k];
      if (f.repeater) {
        net.SetRepeaterUp(f.id, f.up);
      } else {
        net.SetSiteUp(f.id, f.up);
      }
      const std::vector<SiteSet>& components = net.Components();
      got_n[k] = components.size();
      for (std::size_t c = 0; c < components.size() && c < 8; ++c) {
        got[k][c] = components[c].mask();
      }
    }
    out.ns += NanosBetween(t0, Clock::now());
    i = end;
  }
  out.calls = flips.size();
  for (std::size_t k = 0; k < flips.size(); ++k) {
    const FlipRecord& f = flips[k];
    bool same = got_n[k] == f.num_components;
    for (std::size_t c = 0; same && c < got_n[k]; ++c) {
      same = got[k][c] == f.components[c];
    }
    if (!same) ++out.mismatches;
  }
  return out;
}

/// How a recorded protocol name evaluates quorums. MCV's static test is
/// not EvaluateDynamicQuorum, so its records are not replayed.
struct QuorumRule {
  bool dynamic = false;
  dynvote::TieBreak tie_break = dynvote::TieBreak::kLexicographic;
  bool topological = false;
};

QuorumRule RuleFor(const std::string& protocol) {
  QuorumRule rule;
  if (protocol == "DV") {
    rule.dynamic = true;
    rule.tie_break = dynvote::TieBreak::kNone;
  } else if (protocol == "LDV" || protocol == "ODV") {
    rule.dynamic = true;
  } else if (protocol == "TDV" || protocol == "OTDV") {
    rule.dynamic = true;
    rule.topological = true;
  }
  return rule;
}

/// A replica store whose reachable copies reproduce a recorded decision's
/// Q (maximal operation number), S (maximal version) and Pm (partition
/// set at Q).
dynvote::ReplicaStore RebuildStore(SiteSet placement,
                                   const dynvote::QuorumSetMasks& sets) {
  dynvote::ReplicaStore store = dynvote::ReplicaStore::Make(placement).MoveValue();
  const SiteSet reachable = SiteSet::FromMask(sets.group).Intersect(placement);
  const SiteSet q = SiteSet::FromMask(sets.q);
  const SiteSet s = SiteSet::FromMask(sets.s);
  for (dynvote::SiteId site : reachable) {
    dynvote::ReplicaState* state = store.mutable_state(site);
    state->op_number = q.Contains(site) ? 2 : 1;
    state->version = s.Contains(site) ? 2 : 1;
    state->partition_set =
        q.Contains(site) ? SiteSet::FromMask(sets.pm) : placement;
  }
  return store;
}

/// Recorded quorum masks into EvaluateDynamicQuorum over stores rebuilt
/// from Q/S/Pm (granted and reason must match), then every granted
/// decision's COMMIT(S, o+1, v, S) into ReplicaStore::Commit (the new
/// partition set must be installed at every member of S).
void ReplayQuorum(const std::shared_ptr<const dynvote::Topology>& topology,
                  const std::vector<SiteSet>& placement_of_unit,
                  const std::vector<std::string>& protocols,
                  const std::vector<QuorumRecord>& records, Replay* quorum,
                  Replay* commit) {
  std::vector<QuorumRule> rules;
  for (const std::string& p : protocols) rules.push_back(RuleFor(p));
  std::vector<const QuorumRecord*> chunk;
  std::vector<dynvote::ReplicaStore> stores;
  std::vector<dynvote::QuorumDecision> decisions;
  std::size_t next = 0;
  while (next < records.size()) {
    chunk.clear();
    stores.clear();
    while (next < records.size() && chunk.size() < kChunk) {
      const QuorumRecord& r = records[next++];
      if (!rules[r.protocol].dynamic) continue;
      const SiteSet placement =
          placement_of_unit[static_cast<std::size_t>(r.unit)];
      chunk.push_back(&r);
      stores.push_back(RebuildStore(placement, r.sets));
    }
    decisions.assign(chunk.size(), dynvote::QuorumDecision{});
    Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      const QuorumRule& rule = rules[chunk[k]->protocol];
      decisions[k] = dynvote::EvaluateDynamicQuorum(
          stores[k], SiteSet::FromMask(chunk[k]->sets.group), rule.tie_break,
          rule.topological ? topology.get() : nullptr);
    }
    quorum->ns += NanosBetween(t0, Clock::now());
    quorum->calls += chunk.size();
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      if (decisions[k].granted != chunk[k]->granted ||
          decisions[k].reason != chunk[k]->reason) {
        ++quorum->mismatches;
      }
    }

    std::uint64_t commits = 0;
    t0 = Clock::now();
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      if (!chunk[k]->granted) continue;
      const SiteSet current = SiteSet::FromMask(chunk[k]->sets.s);
      stores[k].Commit(current, 3, 2, current);
      ++commits;
    }
    commit->ns += NanosBetween(t0, Clock::now());
    commit->calls += commits;
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      if (!chunk[k]->granted) continue;
      const SiteSet current = SiteSet::FromMask(chunk[k]->sets.s);
      for (dynvote::SiteId site : current) {
        const dynvote::ReplicaState& state = stores[k].state(site);
        if (state.partition_set != current || state.op_number != 3) {
          ++commit->mismatches;
          break;
        }
      }
    }
  }
}

/// Hold-model replay of recorded dispatch times: the first `hold` times
/// are scheduled, then every pop schedules the next recorded time. The
/// pops must come out in the recorded order.
template <typename Queue>
Replay ReplayQueue(const std::vector<std::vector<double>>& units, int hold) {
  Replay out;
  std::vector<double> popped;
  for (const std::vector<double>& times : units) {
    const std::size_t n = times.size();
    const std::size_t h = std::min<std::size_t>(n, static_cast<std::size_t>(hold));
    popped.assign(n, 0.0);
    Queue queue;
    std::uint64_t fired = 0;
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_same_v<Queue, dynvote::EventQueue>) {
      auto callback = [&fired](dynvote::SimTime) { ++fired; };
      for (std::size_t k = 0; k < h; ++k) queue.Schedule(times[k], callback);
      for (std::size_t i = 0; i < n; ++i) {
        popped[i] = queue.RunNext();
        if (i + h < n) queue.Schedule(times[i + h], callback);
      }
    } else {
      for (std::size_t k = 0; k < h; ++k) queue.Schedule(times[k], k);
      for (std::size_t i = 0; i < n; ++i) {
        popped[i] = queue.PopNext().when;
        ++fired;
        if (i + h < n) queue.Schedule(times[i + h], i + h);
      }
    }
    out.ns += NanosBetween(t0, Clock::now());
    out.calls += n;
    if (fired != n) ++out.mismatches;
    for (std::size_t i = 0; i < n; ++i) {
      if (popped[i] != times[i]) ++out.mismatches;
    }
  }
  return out;
}

/// Collects completed pages in memory.
class MemoryPageSink final : public dynvote::TracePageSink {
 public:
  void WritePage(std::string* page) override {
    bytes_.append(*page);
    page->clear();
  }
  void Flush() override {}
  bool ok() const override { return true; }
  std::string error() const override { return {}; }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

bool SameEvent(const dynvote::TraceEvent& a, const dynvote::TraceEvent& b) {
  using dynvote::TraceEventType;
  if (a.type != b.type || a.t != b.t || a.seq != b.seq ||
      a.replication != b.replication) {
    return false;
  }
  switch (a.type) {
    case TraceEventType::kNet:
      return a.site == b.site && a.repeater == b.repeater && a.up == b.up &&
             a.generation == b.generation && a.components == b.components;
    case TraceEventType::kSim:
      return std::string_view(a.op) == std::string_view(b.op);
    case TraceEventType::kQuorum:
      return a.protocol == b.protocol && a.write == b.write &&
             a.granted == b.granted && a.reason == b.reason &&
             a.group == b.group && a.set_r == b.set_r &&
             a.set_q == b.set_q && a.set_s == b.set_s && a.set_t == b.set_t &&
             a.set_pm == b.set_pm;
    case TraceEventType::kAccess:
      return a.protocol == b.protocol && a.write == b.write &&
             a.granted == b.granted && a.reason == b.reason &&
             a.origin == b.origin;
    case TraceEventType::kAvail:
      return a.protocol == b.protocol && a.available == b.available;
    case TraceEventType::kServing:
      return a.protocol == b.protocol && a.write == b.write &&
             a.origin == b.origin && a.granted == b.granted &&
             a.latency_ms == b.latency_ms && a.msgs == b.msgs &&
             a.depth == b.depth;
  }
  return false;
}

struct EncodeReplay {
  Replay replay;
  double bytes_per_event = 0.0;
};

/// Recorded events into BinaryTraceSink over an in-memory page sink, the
/// way the emitters call it (typed encoders with pre-registered labels,
/// generic Write for net and serving events). The bytes must decode back
/// to the recorded events.
EncodeReplay ReplayEncode(const std::vector<dynvote::TraceEvent>& events,
                          std::uint64_t seed) {
  using dynvote::TraceEventType;
  EncodeReplay out;
  MemoryPageSink pages;
  dynvote::BinaryTraceSink sink(&pages);
  std::vector<std::uint32_t> labels(events.size(), 0);
  std::map<std::string, std::uint32_t> interned;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const dynvote::TraceEvent& e = events[i];
    const std::string key = e.type == TraceEventType::kSim ? e.op : e.protocol;
    auto it = interned.find(key);
    if (it == interned.end()) {
      it = interned.emplace(key, sink.RegisterLabel(key)).first;
    }
    labels[i] = it->second;
  }
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const dynvote::TraceEvent& e = events[i];
    switch (e.type) {
      case TraceEventType::kSim:
        sink.EncodeSim(e.t, e.seq, e.replication, labels[i]);
        break;
      case TraceEventType::kQuorum:
        sink.EncodeQuorum(e.t, e.seq, e.replication, labels[i], e.write,
                          e.granted, e.reason,
                          dynvote::QuorumSetMasks{e.group, e.set_r, e.set_q,
                                                  e.set_s, e.set_t, e.set_pm});
        break;
      case TraceEventType::kAccess:
        sink.EncodeAccess(e.t, e.seq, e.replication, labels[i], e.write,
                          e.granted, e.reason, e.origin);
        break;
      case TraceEventType::kAvail:
        sink.EncodeAvail(e.t, e.seq, e.replication, labels[i], e.available);
        break;
      default:
        sink.Write(e);
        break;
    }
  }
  sink.Flush();
  out.replay.ns = NanosBetween(t0, Clock::now());
  out.replay.calls = events.size();
  out.bytes_per_event = Ratio(static_cast<double>(pages.bytes().size()),
                              static_cast<double>(events.size()));

  std::istringstream in(dynvote::BinaryTraceHeader(seed) + pages.bytes());
  dynvote::BinaryTraceReader reader(&in);
  if (!reader.ReadHeader().ok()) {
    out.replay.mismatches = events.size();
    return out;
  }
  dynvote::TraceEvent decoded;
  for (const dynvote::TraceEvent& e : events) {
    auto next = reader.Next(&decoded);
    if (!next.ok() || !*next || !SameEvent(e, decoded)) {
      ++out.replay.mismatches;
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Solo-engine recording -> metrics
// ---------------------------------------------------------------------

/// Per-layer counts, gaps and ledger rows of a recorded solo-engine run
/// (paper_grid, serve_mix). `object_years` is the recorded work and
/// `traced_wall_s` the wall of the recorded round.
void AddRecordingMetrics(const RecordingSink& sink, double object_years,
                         double traced_wall_s, MetricMap* m) {
  auto calls = [&sink](Emitter e) {
    return static_cast<double>(sink.calls(e));
  };
  auto gap = [&sink](Emitter e) { return static_cast<double>(sink.gap_ns(e)); };
  const double dispatches = calls(Emitter::kDispatch);
  const double flips = calls(Emitter::kFlip);
  const double quorums = calls(Emitter::kQuorum) + calls(Emitter::kCacheHit);
  const double accesses = calls(Emitter::kAccess);
  const double granted = static_cast<double>(sink.accesses_granted());
  const double wall_ns = traced_wall_s * 1e9;

  Set(m, "sim.events", Ratio(dispatches, object_years), "count/obj-yr");
  Set(m, "net.flips", Ratio(flips, object_years), "count/obj-yr");
  Set(m, "net.flip_self_ns", Ratio(gap(Emitter::kFlip), flips), "ns");
  Set(m, "core.quorum_evals", Ratio(quorums, object_years), "count/obj-yr");
  Set(m, "core.quorum_self_ns",
      Ratio(gap(Emitter::kQuorum) + gap(Emitter::kCacheHit), quorums), "ns");
  Set(m, "core.memo_hit_ratio", Ratio(calls(Emitter::kCacheHit), quorums),
      "ratio");
  Set(m, "model.accesses", Ratio(accesses, object_years), "count/obj-yr");
  Set(m, "model.grant_ratio", Ratio(granted, accesses), "ratio");
  Set(m, "model.dispatch_self_ns",
      Ratio(gap(Emitter::kFlip) + gap(Emitter::kAccess), dispatches), "ns");
  Set(m, "model.serving_self_ns",
      Ratio(gap(Emitter::kServing), calls(Emitter::kServing)), "ns");
  Set(m, "repl.commits", Ratio(granted, accesses), "count/access");
  Set(m, "obs.events",
      Ratio(static_cast<double>(sink.total_calls()), object_years),
      "count/obj-yr");

  Set(m, "sim.self_frac", Ratio(gap(Emitter::kDispatch), wall_ns), "frac");
  Set(m, "net.self_frac", Ratio(gap(Emitter::kFlip), wall_ns), "frac");
  Set(m, "core.self_frac",
      Ratio(gap(Emitter::kQuorum) + gap(Emitter::kCacheHit), wall_ns), "frac");
  Set(m, "model.self_frac",
      Ratio(gap(Emitter::kAccess) + gap(Emitter::kServing) +
                gap(Emitter::kOther),
            wall_ns),
      "frac");
  Set(m, "stats.self_frac", Ratio(gap(Emitter::kAvail), wall_ns), "frac");
  Set(m, "obs.self_frac", Ratio(static_cast<double>(sink.inside_ns()), wall_ns),
      "frac");
  Set(m, "ledger.unattributed_frac",
      1.0 - Ratio(static_cast<double>(sink.charged_ns()), wall_ns), "frac");
}

/// Replays a solo-engine recording through every layer function and
/// adds the replay metrics. Returns the mismatch count.
std::uint64_t AddReplayMetrics(
    const RecordingSink& sink,
    const std::shared_ptr<const dynvote::Topology>& topology,
    const std::vector<SiteSet>& placement_of_unit, std::uint64_t seed,
    MetricMap* m, std::vector<std::string>* notes) {
  const Replay flips = ReplayFlips(topology, sink.flips());
  Replay quorum;
  Replay commit;
  ReplayQuorum(topology, placement_of_unit, sink.protocols(), sink.quorums(),
               &quorum, &commit);
  const Replay events =
      ReplayQueue<dynvote::EventQueue>(sink.dispatch_times(), kSoloPending);
  const Replay calendar =
      ReplayQueue<dynvote::CalendarQueue>(sink.dispatch_times(), kSoloPending);
  const EncodeReplay encode = ReplayEncode(sink.sample(), seed);

  Set(m, "net.flip_ns", flips.ns_per_call(), "ns");
  Set(m, "core.quorum_ns", quorum.ns_per_call(), "ns");
  Set(m, "repl.commit_ns", commit.ns_per_call(), "ns");
  Set(m, "sim.queue_ns", events.ns_per_call(), "ns");
  Set(m, "sim.calendar_ns", calendar.ns_per_call(), "ns");
  Set(m, "obs.encode_ns", encode.replay.ns_per_call(), "ns");
  Set(m, "obs.btrace_bytes_per_event", encode.bytes_per_event, "B/event");

  const std::pair<const char*, const Replay*> all[] = {
      {"flip components", &flips},   {"quorum granted/reason", &quorum},
      {"commit partition set", &commit}, {"EventQueue order", &events},
      {"CalendarQueue order", &calendar}, {"btrace bytes", &encode.replay}};
  std::uint64_t mismatches = 0;
  for (const auto& [what, replay] : all) {
    notes->push_back(std::string("replay ") + what + ": " +
                     std::to_string(replay->calls) + " calls, " +
                     std::to_string(replay->mismatches) + " mismatches");
    mismatches += replay->mismatches;
  }
  return mismatches;
}

std::vector<SiteSet> PaperPlacements() {
  std::vector<SiteSet> placements;
  for (const dynvote::PaperConfiguration& c : dynvote::PaperConfigurations()) {
    placements.push_back(c.placement);
  }
  return placements;
}

}  // namespace

// ---------------------------------------------------------------------
// paper_grid
// ---------------------------------------------------------------------

TraceReport PaperGrid::Traced(const std::vector<UnitOutput>& untraced,
                              double untraced_wall_s) {
  TraceReport report;
  MetricMap& m = report.metrics;
  const auto& configs = dynvote::PaperConfigurations();

  RecordingSink sink(kMaxRecords);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    dynvote::MetricsShard shard;
    dynvote::ObsContext ctx;
    ctx.sink = &sink;
    ctx.metrics = &shard;
    sink.BeginUnit(static_cast<int>(i));
    auto rows = RunConfig(configs[i], options_, &ctx);
    sink.EndUnit();
    ++report.units;
    Digest d;
    if (rows.ok()) AddRows(*rows, &d);
    if (!rows.ok() || d.value() != untraced[i].digest) {
      ++report.mismatches;
      report.notes.push_back("traced row " + untraced[i].name +
                             " differs from the untraced row");
    }
  }
  const double traced_wall = SecondsSince(t0);

  AddRecordingMetrics(sink, WorkPerRound(), traced_wall, &m);
  report.mismatches += AddReplayMetrics(sink, network_.topology,
                                        PaperPlacements(), seed_, &m,
                                        &report.notes);

  // Ablations, paired against the same path with the option at its
  // default.
  const ExperimentOptions quarter = Quarter(options_);
  ExperimentOptions no_cache = quarter;
  no_cache.quorum_cache = false;
  const double cache_ratio =
      PairedRatio([&] { return TimedRound(quarter); },
                  [&] { return TimedRound(no_cache); });
  ReplicationOptions traced_binary;
  traced_binary.collect_traces = true;
  traced_binary.trace_format = dynvote::TraceFormat::kBinary;
  ReplicationOptions metered;
  metered.collect_metrics = true;
  auto replicated = [&](const ReplicationOptions& replication) {
    return [this, &quarter, replication] {
      return TimedReplicatedRound(quarter, replication);
    };
  };
  const double trace_ratio =
      PairedRatio(replicated(ReplicationOptions{}), replicated(traced_binary));
  const double metrics_ratio =
      PairedRatio(replicated(ReplicationOptions{}), replicated(metered));
  report.units += 12;

  Set(&m, "core.memo_saved_frac", 1.0 - Ratio(1.0, cache_ratio), "frac");
  Set(&m, "obs.trace_ratio", trace_ratio, "ratio");
  Set(&m, "obs.metrics_ratio", metrics_ratio, "ratio");
  Set(&m, "ledger.trace_cost_frac",
      Ratio(traced_wall, untraced_wall_s) - 1.0, "frac");
  return report;
}

// ---------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------

TraceReport ServeMix::Traced(const std::vector<UnitOutput>& untraced,
                             double untraced_wall_s) {
  TraceReport report;
  MetricMap& m = report.metrics;

  RecordingSink sink(kMaxRecords);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < factories_.size(); ++i) {
    auto protocols = factories_[i]();
    dynvote::MetricsShard shard;
    dynvote::ObsContext ctx;
    ctx.sink = &sink;
    ctx.metrics = &shard;
    ctx.replication = 0;  // as the replicated path numbers its one run
    dynvote::ExperimentSpec spec;
    spec.topology = network_.topology;
    spec.profiles = network_.profiles;
    spec.options = options_;
    spec.obs = &ctx;
    sink.BeginUnit(static_cast<int>(i));
    auto rows = protocols.ok()
                    ? dynvote::RunAvailabilityExperiment(spec,
                                                         protocols.MoveValue())
                    : dynvote::Result<std::vector<PolicyResult>>(
                          protocols.status());
    sink.EndUnit();
    ++report.units;
    Digest d;
    if (rows.ok()) {
      AddRows(*rows, &d);
      d.Bytes(shard.ToJson());
    }
    if (!rows.ok() || d.value() != untraced[i].digest) {
      ++report.mismatches;
      report.notes.push_back("traced configuration " + untraced[i].name +
                             " differs from the untraced one");
    }
  }
  const double traced_wall = SecondsSince(t0);

  AddRecordingMetrics(sink, WorkPerRound(), traced_wall, &m);
  report.mismatches += AddReplayMetrics(sink, network_.topology,
                                        PaperPlacements(), seed_, &m,
                                        &report.notes);

  // Ablations, paired; the base is metered, as `serve` always is.
  const ExperimentOptions quarter = Quarter(options_);
  ReplicationOptions metered;
  metered.collect_metrics = true;
  ExperimentOptions no_cache = quarter;
  no_cache.quorum_cache = false;
  ReplicationOptions traced_binary = metered;
  traced_binary.collect_traces = true;
  traced_binary.trace_format = dynvote::TraceFormat::kBinary;
  auto round = [&](const ExperimentOptions& options,
                   const ReplicationOptions& replication) {
    return [this, options, replication] {
      return TimedRound(options, replication);
    };
  };
  const double cache_ratio =
      PairedRatio(round(quarter, metered), round(no_cache, metered));
  const double metrics_ratio =
      PairedRatio(round(quarter, ReplicationOptions{}), round(quarter, metered));
  const double trace_ratio =
      PairedRatio(round(quarter, metered), round(quarter, traced_binary));
  report.units += 12;

  Set(&m, "core.memo_saved_frac", 1.0 - Ratio(1.0, cache_ratio), "frac");
  Set(&m, "obs.metrics_ratio", metrics_ratio, "ratio");
  Set(&m, "obs.trace_ratio", trace_ratio, "ratio");
  Set(&m, "ledger.trace_cost_frac",
      Ratio(traced_wall, untraced_wall_s) - 1.0, "frac");
  return report;
}

// ---------------------------------------------------------------------
// sweep_batched
// ---------------------------------------------------------------------

namespace {

/// What RunReplicatedExperiment folds per policy after its join, rebuilt
/// from the public ReplicationStats.
std::vector<dynvote::AggregatePolicyResult> Aggregate(
    const std::vector<const std::vector<PolicyResult>*>& per_replication) {
  std::vector<dynvote::AggregatePolicyResult> out;
  if (per_replication.empty()) return out;
  const std::size_t num_policies = per_replication.front()->size();
  for (std::size_t p = 0; p < num_policies; ++p) {
    dynvote::AggregatePolicyResult agg;
    agg.name = (*per_replication.front())[p].name;
    agg.replications = static_cast<int>(per_replication.size());
    dynvote::ReplicationStats unavailability;
    dynvote::ReplicationStats outage_duration;
    dynvote::ReplicationStats first_outage;
    for (const std::vector<PolicyResult>* rows : per_replication) {
      const PolicyResult& r = (*rows)[p];
      unavailability.Add(r.unavailability);
      if (r.num_unavailable_periods > 0) {
        outage_duration.Add(r.mean_unavailable_duration);
        ++agg.replications_with_outages;
      }
      if (r.time_to_first_outage >= 0.0) {
        first_outage.Add(r.time_to_first_outage);
      } else {
        first_outage.AddCensored();
      }
      agg.accesses_attempted += r.accesses_attempted;
      agg.accesses_granted += r.accesses_granted;
      agg.num_unavailable_periods +=
          static_cast<std::uint64_t>(r.num_unavailable_periods);
      agg.dual_majority_instants += r.dual_majority_instants;
      agg.measured_days += r.measured_time;
    }
    agg.unavailability = unavailability.Summary();
    agg.mean_outage_duration = outage_duration.Summary();
    agg.time_to_first_outage = first_outage.Summary();
    out.push_back(std::move(agg));
  }
  return out;
}

bool SameSummary(const dynvote::ReplicationSummary& a,
                 const dynvote::ReplicationSummary& b) {
  return a.num_samples == b.num_samples && a.num_censored == b.num_censored &&
         a.mean == b.mean && a.stddev == b.stddev &&
         a.ci95_halfwidth == b.ci95_halfwidth && a.min == b.min &&
         a.max == b.max;
}

bool SameAggregate(const dynvote::AggregatePolicyResult& a,
                   const dynvote::AggregatePolicyResult& b) {
  return a.name == b.name && a.replications == b.replications &&
         SameSummary(a.unavailability, b.unavailability) &&
         SameSummary(a.mean_outage_duration, b.mean_outage_duration) &&
         SameSummary(a.time_to_first_outage, b.time_to_first_outage) &&
         a.replications_with_outages == b.replications_with_outages &&
         a.accesses_attempted == b.accesses_attempted &&
         a.accesses_granted == b.accesses_granted &&
         a.num_unavailable_periods == b.num_unavailable_periods &&
         a.dual_majority_instants == b.dual_majority_instants &&
         a.measured_days == b.measured_days;
}

}  // namespace

TraceReport SweepBatched::Traced(const std::vector<UnitOutput>& untraced,
                                 double /*untraced_wall_s*/) {
  TraceReport report;
  MetricMap& m = report.metrics;
  const int groups = (replications_ + kObjects - 1) / kObjects;

  // The library's own round, adjacent to the decomposition: the base of
  // the trace cost and the reference for the rebuilt aggregation.
  ReplicationOptions four;
  four.jobs = kJobs;
  four.objects = kObjects;
  Clock::time_point t0 = Clock::now();
  const auto library = Run(replications_, four);
  const double library_s = SecondsSince(t0);
  ++report.units;

  // Decomposition: seeds, one batched group per pool task, aggregation.
  const Clock::time_point start = Clock::now();
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(replications_));
  for (int r = 0; r < replications_; ++r) {
    seeds[static_cast<std::size_t>(r)] = dynvote::ReplicationSeed(seed_, r);
  }
  const double seeds_s = SecondsSince(start);

  struct Task {
    Clock::time_point submit, begin, end;
    std::thread::id worker;
    dynvote::Result<std::vector<std::vector<PolicyResult>>> rows =
        Status::Internal("not run");
  };
  std::vector<Task> tasks(static_cast<std::size_t>(groups));
  const Clock::time_point pool_start = Clock::now();
  {
    dynvote::ThreadPool pool(kJobs);
    for (int g = 0; g < groups; ++g) {
      Task* task = &tasks[static_cast<std::size_t>(g)];
      task->submit = Clock::now();
      pool.Submit([this, task, &seeds, g] {
        task->begin = Clock::now();
        task->worker = std::this_thread::get_id();
        const auto lo = seeds.begin() + g * kObjects;
        const auto hi = seeds.begin() +
                        std::min(replications_, (g + 1) * kObjects);
        task->rows = dynvote::RunBatchedAvailabilityExperiment(
            spec_, batched_, std::vector<std::uint64_t>(lo, hi));
        task->end = Clock::now();
      });
    }
    pool.Wait();
  }
  const Clock::time_point pool_end = Clock::now();
  const double pool_s = std::chrono::duration<double>(pool_end - pool_start).count();

  const Clock::time_point agg_start = Clock::now();
  std::vector<const std::vector<PolicyResult>*> per_replication;
  for (const Task& task : tasks) {
    if (!task.rows.ok()) continue;
    for (const auto& rows : *task.rows) per_replication.push_back(&rows);
  }
  const std::vector<dynvote::AggregatePolicyResult> aggregate =
      Aggregate(per_replication);
  const double agg_s = SecondsSince(agg_start);
  const double traced_wall = SecondsSince(start);

  // The decomposed groups must equal the untraced round's.
  for (int g = 0; g < groups; ++g) {
    const Task& task = tasks[static_cast<std::size_t>(g)];
    Digest d;
    if (task.rows.ok()) {
      for (std::size_t k = 0; k < task.rows->size(); ++k) {
        d.U64(seeds[static_cast<std::size_t>(g * kObjects) + k]);
        AddRows((*task.rows)[k], &d);
      }
    }
    ++report.units;
    if (!task.rows.ok() ||
        d.value() != untraced[static_cast<std::size_t>(g)].digest) {
      ++report.mismatches;
      report.notes.push_back("decomposed group" + std::to_string(g) +
                             " differs from the untraced group");
    }
  }

  std::vector<double> group_ms;
  std::vector<double> wait_ms;
  double busy_s = 0.0;
  std::map<std::thread::id, Clock::time_point> last_end;
  for (const Task& task : tasks) {
    const double run = std::chrono::duration<double>(task.end - task.begin).count();
    group_ms.push_back(run * 1e3);
    wait_ms.push_back(
        std::chrono::duration<double, std::milli>(task.begin - task.submit)
            .count());
    busy_s += run;
    auto& end = last_end[task.worker];
    end = std::max(end, task.end);
  }
  Clock::time_point first_idle = pool_end;
  Clock::time_point last_done = pool_start;
  for (const auto& [worker, end] : last_end) {
    first_idle = std::min(first_idle, end);
    last_done = std::max(last_done, end);
  }
  Set(&m, "model.group_ms_p50", Quantile(group_ms, 0.5), "ms");
  Set(&m, "model.group_ms_p90", Quantile(group_ms, 0.9), "ms");
  Set(&m, "model.group_samples", static_cast<double>(group_ms.size()),
      "count");
  Set(&m, "util.pool_busy_frac", Ratio(busy_s, kJobs * pool_s), "frac");
  Set(&m, "util.pool_wait_ms", Median(wait_ms), "ms");
  Set(&m, "util.join_tail_ms",
      std::chrono::duration<double, std::milli>(last_done - first_idle).count(),
      "ms");
  Set(&m, "stats.aggregate_ms", agg_s * 1e3, "ms");
  Set(&m, "model.self_frac", Ratio(seeds_s + pool_s, traced_wall), "frac");
  Set(&m, "stats.self_frac", Ratio(agg_s, traced_wall), "frac");
  Set(&m, "ledger.unattributed_frac",
      1.0 - Ratio(seeds_s + pool_s + agg_s, traced_wall), "frac");
  Set(&m, "ledger.trace_cost_frac", Ratio(traced_wall, library_s) - 1.0,
      "frac");
  const auto mine = Aggregate(per_replication);
  bool same = library.ok() && mine.size() == library->aggregate.size();
  for (std::size_t p = 0; same && p < mine.size(); ++p) {
    same = SameAggregate(mine[p], library->aggregate[p]);
  }
  if (!same) {
    ++report.mismatches;
    report.notes.push_back("rebuilt aggregation differs from the library's");
  }

  // Paired ablations on subsets: jobs=1, and tracing or metering, which
  // force the solo fallback whose cost these ratios expose.
  const int subset = std::min(replications_, 16 * kObjects);
  ReplicationOptions one = four;
  one.jobs = 1;
  auto run = [this](int replications, const ReplicationOptions& options) {
    return [this, replications, options] {
      const Clock::time_point begin = Clock::now();
      (void)Run(replications, options);
      return SecondsSince(begin);
    };
  };
  Set(&m, "util.speedup", PairedRatio(run(subset, four), run(subset, one)),
      "ratio");
  const int obs_subset = std::min(replications_, 8 * kObjects);
  ReplicationOptions traced_binary = four;
  traced_binary.collect_traces = true;
  traced_binary.trace_format = dynvote::TraceFormat::kBinary;
  ReplicationOptions metered = four;
  metered.collect_metrics = true;
  Set(&m, "obs.trace_ratio",
      PairedRatio(run(obs_subset, four), run(obs_subset, traced_binary)),
      "ratio");
  Set(&m, "obs.metrics_ratio",
      PairedRatio(run(obs_subset, four), run(obs_subset, metered)), "ratio");
  report.units += 12;

  // Workload shape and the calendar replay, from a solo recording of the
  // first group's objects (which must equal their batched rows).
  RecordingSink sink(kMaxRecords);
  const int recorded = std::min(replications_, kObjects);
  for (int k = 0; k < recorded; ++k) {
    auto protocols = factory_();
    dynvote::ObsContext ctx;
    ctx.sink = &sink;
    dynvote::ExperimentSpec spec = spec_;
    spec.options.seed = seeds[static_cast<std::size_t>(k)];
    spec.obs = &ctx;
    sink.BeginUnit(k);
    auto rows = protocols.ok()
                    ? dynvote::RunAvailabilityExperiment(spec,
                                                         protocols.MoveValue())
                    : dynvote::Result<std::vector<PolicyResult>>(
                          protocols.status());
    sink.EndUnit();
    ++report.units;
    const RowMatch match =
        rows.ok() && tasks.front().rows.ok()
            ? CompareRows(*rows,
                          (*tasks.front().rows)[static_cast<std::size_t>(k)])
            : RowMatch::kDifferent;
    if (match == RowMatch::kLastBits) {
      report.notes.push_back("solo object " + std::to_string(k) +
                             " differs from its batched row in the last bits");
    } else if (match == RowMatch::kDifferent) {
      ++report.mismatches;
      report.notes.push_back("solo object " + std::to_string(k) +
                             " differs from its batched row");
    }
  }
  const ExperimentOptions& o = spec_.options;
  const double object_years =
      dynvote::ToYears(o.warmup + o.batch_length * o.num_batches) * recorded;
  const double dispatches = static_cast<double>(sink.calls(Emitter::kDispatch));
  const double accesses = static_cast<double>(sink.calls(Emitter::kAccess));
  Set(&m, "sim.events", Ratio(dispatches, object_years), "count/obj-yr");
  Set(&m, "net.flips",
      Ratio(static_cast<double>(sink.calls(Emitter::kFlip)), object_years),
      "count/obj-yr");
  Set(&m, "model.accesses", Ratio(accesses, object_years), "count/obj-yr");
  Set(&m, "model.grant_ratio",
      Ratio(static_cast<double>(sink.accesses_granted()), accesses), "ratio");
  Set(&m, "obs.events",
      Ratio(static_cast<double>(sink.total_calls()), object_years),
      "count/obj-yr");

  // All objects' dispatch streams merged, as one calendar holds them.
  std::vector<double> merged;
  for (const auto& times : sink.dispatch_times()) {
    merged.insert(merged.end(), times.begin(), times.end());
  }
  std::sort(merged.begin(), merged.end());
  const Replay calendar = ReplayQueue<dynvote::CalendarQueue>(
      {merged}, recorded * kSoloPending);
  Set(&m, "sim.calendar_ns", calendar.ns_per_call(), "ns");
  report.notes.push_back("replay CalendarQueue order: " +
                         std::to_string(calendar.calls) + " calls, " +
                         std::to_string(calendar.mismatches) + " mismatches");
  report.mismatches += calendar.mismatches;
  return report;
}

// ---------------------------------------------------------------------
// check_section3
// ---------------------------------------------------------------------

TraceReport CheckSection3::Traced(const std::vector<UnitOutput>& untraced,
                                  double untraced_wall_s) {
  namespace check = dynvote::check;
  TraceReport report;
  MetricMap& m = report.metrics;

  // Per-level decomposition: RunCheck at every depth up to the bound.
  std::vector<double> level_wall;
  double decomposition_s = 0.0;
  check::CheckReport deepest;
  for (int d = 1; d <= options_.depth; ++d) {
    check::CheckOptions options = options_;
    options.depth = d;
    const Clock::time_point t0 = Clock::now();
    auto r = check::RunCheck(options);
    level_wall.push_back(SecondsSince(t0));
    decomposition_s += level_wall.back();
    ++report.units;
    if (!r.ok()) {
      ++report.mismatches;
      report.notes.push_back("RunCheck failed at depth " + std::to_string(d));
      continue;
    }
    if (d == options_.depth) deepest = *r;
  }
  if (ReportDigest(deepest) != untraced.front().digest) {
    ++report.mismatches;
    report.notes.push_back("per-level run differs from the untraced run");
  }
  const double level_s =
      level_wall.size() >= 2
          ? level_wall.back() - level_wall[level_wall.size() - 2]
          : level_wall.back();
  Set(&m, "check.states", static_cast<double>(deepest.states_visited),
      "count");
  Set(&m, "check.transitions", static_cast<double>(deepest.transitions),
      "count");
  Set(&m, "check.level_ms", level_s * 1e3, "ms");
  Set(&m, "ledger.trace_cost_frac",
      Ratio(decomposition_s, untraced_wall_s) - 1.0, "frac");

  // POR off must visit the same state set.
  check::CheckOptions no_por = options_;
  no_por.por = false;
  auto off = check::RunCheck(no_por);
  ++report.units;
  if (!off.ok() || off->states_visited != deepest.states_visited ||
      off->visited_digest != deepest.visited_digest) {
    ++report.mismatches;
    report.notes.push_back("POR off visits a different state set");
  }

  // Paired ablations: POR off, and jobs=1 against jobs=4.
  auto timed = [](const check::CheckOptions& options) {
    return [options] {
      const Clock::time_point begin = Clock::now();
      (void)check::RunCheck(options);
      return SecondsSince(begin);
    };
  };
  check::CheckOptions one_job = options_;
  one_job.jobs = 1;
  Set(&m, "check.por_saved_frac",
      1.0 - Ratio(1.0, PairedRatio(timed(options_), timed(no_por))), "frac");
  Set(&m, "util.speedup", PairedRatio(timed(options_), timed(one_job)),
      "ratio");
  report.units += 8;

  // Swarm schedules from the seed through the harness and the visited set.
  auto topology = check::MakeCheckTopology(options_.topology);
  if (!topology.ok()) {
    ++report.mismatches;
    report.notes.push_back(topology.status().ToString());
    return report;
  }
  const std::vector<check::CheckAction> alphabet =
      check::ActionAlphabet(**topology);
  const int schedules = options_.depth >= 9 ? 256 : 32;
  const int steps = 12;
  dynvote::Rng rng(seed_);
  std::vector<std::string> signatures;
  std::int64_t make_ns = 0;
  std::int64_t apply_ns = 0;
  std::int64_t signature_ns = 0;
  std::uint64_t applies = 0;
  const Clock::time_point swarm_start = Clock::now();
  for (int s = 0; s < schedules; ++s) {
    Clock::time_point a = Clock::now();
    auto harness = check::CheckHarness::Make(*topology, (*topology)->AllSites(),
                                             options_.protocol, options_.policy);
    Clock::time_point b = Clock::now();
    make_ns += NanosBetween(a, b);
    if (!harness.ok()) {
      ++report.mismatches;
      continue;
    }
    for (int step = 0; step < steps; ++step) {
      const check::CheckAction& action =
          alphabet[rng.NextBounded(alphabet.size())];
      a = Clock::now();
      auto violation = (*harness)->Apply(action);
      b = Clock::now();
      apply_ns += NanosBetween(a, b);
      ++applies;
      if (violation.has_value()) {
        ++report.mismatches;
        report.notes.push_back("swarm schedule violated " +
                               violation->invariant);
        break;
      }
      std::string signature;
      a = Clock::now();
      (*harness)->AppendSignature(&signature);
      b = Clock::now();
      signature_ns += NanosBetween(a, b);
      signatures.push_back(std::move(signature));
    }
  }
  const double swarm_s = SecondsSince(swarm_start);
  ++report.units;

  // Every signature into fresh visited sets, from one thread and from four
  // interleaved threads; repeated so the four-thread side outlasts thread
  // start-up. Both sides must build the same set.
  constexpr int kInsertRepeats = 8;
  const std::size_t n = signatures.size();
  std::int64_t insert_one_ns = 0;
  std::int64_t insert_four_ns = 0;
  for (int repeat = 0; repeat < kInsertRepeats; ++repeat) {
    check::ShardedVisitedSet one;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) one.InsertMin(signatures[i], i);
    insert_one_ns += NanosBetween(t0, Clock::now());

    check::ShardedVisitedSet four;
    std::array<std::int64_t, kJobs> thread_ns{};
    {
      std::vector<std::thread> threads;
      for (int k = 0; k < kJobs; ++k) {
        threads.emplace_back([&, k] {
          const Clock::time_point begin = Clock::now();
          for (std::size_t i = static_cast<std::size_t>(k); i < n;
               i += kJobs) {
            four.InsertMin(signatures[i], i);
          }
          thread_ns[static_cast<std::size_t>(k)] =
              NanosBetween(begin, Clock::now());
        });
      }
      for (std::thread& t : threads) t.join();
    }
    insert_four_ns +=
        std::accumulate(thread_ns.begin(), thread_ns.end(), std::int64_t{0});
    if (one.Size() != four.Size() || one.Digest() != four.Digest()) {
      ++report.mismatches;
      report.notes.push_back("4-thread visited set differs from 1-thread set");
    }
  }
  const double inserts = static_cast<double>(n) * kInsertRepeats;
  const double insert_one = Ratio(static_cast<double>(insert_one_ns), inserts);
  const double insert_four =
      Ratio(static_cast<double>(insert_four_ns), inserts);
  Set(&m, "check.apply_ns",
      Ratio(static_cast<double>(apply_ns), static_cast<double>(applies)),
      "ns");
  Set(&m, "check.signature_ns",
      Ratio(static_cast<double>(signature_ns), static_cast<double>(n)), "ns");
  Set(&m, "check.insert_ns", insert_one, "ns");
  Set(&m, "check.insert_contention", Ratio(insert_four, insert_one), "ratio");

  const double swarm_wall_ns =
      swarm_s * 1e9 + static_cast<double>(insert_one_ns);
  Set(&m, "ledger.unattributed_frac",
      1.0 - Ratio(static_cast<double>(make_ns + apply_ns + signature_ns +
                                      insert_one_ns),
                  swarm_wall_ns),
      "frac");
  return report;
}

}  // namespace perfbench
