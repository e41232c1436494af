// The single handle instrumented components hold. Every instrumented
// class stores one `ObsContext*` (null by default), so disabled tracing
// costs exactly one pointer test per emission site. The solo engine's
// event loop stamps `now` before applying each event; downstream
// emitters (NetworkState, protocols, trackers) read it instead of
// knowing about the clock.

#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace dynvote {

struct ObsContext {
  /// Receives every trace event; null disables event tracing.
  TraceSink* sink = nullptr;
  /// Receives counter/gauge/histogram updates; null disables metrics.
  /// Single-writer: each replication worker owns its own shard.
  MetricsShard* metrics = nullptr;
  /// Simulation time of the event being dispatched, stamped by the
  /// solo engine's event loop. 0 before the first event.
  double now = 0.0;
  /// Monotonic sequence number of the event being dispatched (live
  /// events counted from 0; cancelled failures get none); ties within a
  /// timestamp keep their dispatch order in the trace.
  std::uint64_t seq = 0;
  /// Replication index when running under replicated_experiment, else -1.
  int replication = -1;

  bool tracing() const { return sink != nullptr; }
};

}  // namespace dynvote
