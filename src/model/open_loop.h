// The serving model (docs/serving.md): its options and the per-replica
// queueing stage, layered over the availability experiment.
//
// The paper's workload is one closed-loop access per day — enough for
// Tables 2-3 but useless for judging a protocol as a serving system.
// With ServingOptions enabled, the SamplePath (model/sample_path.h)
// generates Poisson arrivals *per replica site* at a configurable
// aggregate rate (arrivals never wait for each other: an open loop, so
// queues can actually build), and ServingStage models each
// replica as a single FIFO server whose per-request service time grows
// with the protocol's control-message count for that access. The result
// is the measurement substrate behind `dynvote serve`: arrival-to-
// completion latency histograms, per-protocol message-cost accounting
// split into access and refresh phases, and queue-depth gauges, exported
// under the dynvote-serving-v1 schema.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "repl/message_bus.h"
#include "util/site_set.h"

namespace dynvote {

/// Serving-report schema identifier: the JSON emitted by `dynvote serve
/// --json` and bench/serving_latency (BENCH_serving.json) carries this
/// tag. Both write their per-protocol rows through AppendServingRowJson,
/// so the two documents share one row shape; bump on incompatible
/// field-set changes.
inline constexpr const char kServingSchema[] = "dynvote-serving-v1";

/// Milliseconds per simulated day — the bridge between SimTime (days)
/// and the millisecond-scale serving parameters.
inline constexpr double kMillisPerDay = 86400.0 * 1000.0;

/// Knobs of the serving model. Disabled by default: the availability
/// experiments are unchanged unless a caller opts in.
struct ServingOptions {
  /// Master switch; when false the experiment runs the paper's
  /// closed-loop accessor (AccessOptions) exactly as before.
  bool enabled = false;
  /// Aggregate arrival rate over all replica sites, per simulated day.
  /// Split evenly across the replicas; each site draws an independent
  /// Poisson stream. Must be > 0 when enabled.
  double arrival_rate_per_day = 1000.0;
  /// Base service time of one request at a replica, milliseconds.
  double service_time_ms = 1.0;
  /// Additional service cost per control message the protocol sent for
  /// the access — the knob that turns message complexity into latency.
  double msg_cost_ms = 0.1;
  /// Fraction of arrivals that are writes; the remainder are reads.
  double write_fraction = 0.5;
};

/// Per-protocol serving bookkeeping: a single-server FIFO queue per
/// replica (Lindley recursion — no completion events enter the event
/// calendar, so the serving stage never perturbs the sample path the
/// availability experiment measures), a latency histogram, and message
/// accounting split by phase. Accumulates into plain members and flushes
/// once via Finish(), keeping the per-arrival cost to a few stores.
class ServingStage {
 public:
  /// Which activity a counter movement belongs to: work done serving an
  /// access, or background refresh traffic (the connection-vector
  /// protocols' OnNetworkEvent state exchanges).
  enum class Phase { kAccess, kRefresh };

  /// What one arrival experienced, for trace emission.
  struct Outcome {
    double latency_ms = 0.0;
    std::uint32_t depth = 0;
  };

  ServingStage(std::string protocol_name, const ServingOptions& options,
               int num_sites);

  /// Attributes the movement of `counter` since the previous call to
  /// `phase` and returns the *control*-message delta (file copies are
  /// data plane, not per-access overhead). Call after every protocol
  /// operation that may have sent messages.
  std::uint64_t AttributeMessages(const MessageCounter& counter, Phase phase);

  /// Runs one arrival through the origin replica's queue: service time
  /// is the base cost plus msg_cost_ms per control message this access
  /// sent; latency is arrival-to-completion (wait + service).
  Outcome OnArrival(double now_days, SiteId origin, std::uint64_t msgs,
                    bool granted);

  /// Records an arrival whose origin replica was down — no queue to
  /// join, counted separately instead of observed as latency.
  void OnRejected() { ++rejected_; }

  std::uint64_t arrivals() const { return arrivals_ + rejected_; }
  std::uint64_t served() const { return arrivals_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t granted() const { return granted_; }
  const HistogramData& latency_ms() const { return latency_ms_; }

  /// Flushes the accumulated counters, the latency histogram and the
  /// queue-depth gauge into `metrics` under serving_* keys (see
  /// docs/serving.md for the table). No-op on null.
  void Finish(MetricsShard* metrics) const;

 private:
  std::string name_;
  ServingOptions options_;
  /// Outstanding completion instants of one replica, oldest first from
  /// `head`. Completions are monotone, so an arrival prunes the ones it
  /// finds done by moving `head`; the survivors are the queue depth it
  /// observed, and the last one is when the server frees up (the
  /// Lindley recursion's state).
  struct InFlight {
    std::vector<double> completions;
    std::size_t head = 0;
  };
  std::vector<InFlight> in_flight_;
  MessageCounter prev_;
  std::uint64_t phase_msgs_[2][kNumMessageKinds] = {};
  HistogramData latency_ms_;
  std::uint64_t arrivals_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t granted_ = 0;
  std::uint32_t max_depth_ = 0;
};

/// One protocol's serving figures, decoded from the serving_* keys
/// ServingStage::Finish wrote into a (merged) metrics shard.
struct ServingRow {
  std::string name;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t granted = 0;
  /// Control messages (file copies excluded, as in
  /// MessageCounter::ControlTotal) by phase.
  std::uint64_t access_messages = 0;
  std::uint64_t refresh_messages = 0;
  HistogramData latency_ms;
  double queue_depth_max = 0.0;

  /// Per served arrival (grant_pct in percent); a row that served
  /// nothing divides by one.
  double msgs_per_access = 0.0;
  double refresh_per_access = 0.0;
  double grant_pct = 0.0;
};

/// Decodes `protocol`'s row from `metrics`. A key that is absent reads
/// as zero (zero counters are not exported).
ServingRow ReadServingRow(const MetricsShard& metrics,
                          std::string_view protocol);

/// Appends `row` as one dynvote-serving-v1 policy object: counts in
/// decimal, every double at 17 significant digits (util/append.h).
void AppendServingRowJson(const ServingRow& row, std::string* out);

}  // namespace dynvote
