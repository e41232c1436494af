// Reads a trace back in — dynvote-trace-v1 JSONL or dynvote-btrace-v1
// binary, auto-detected from the first byte — and aggregates it into the
// per-protocol why-unavailable breakdown the `trace-summary` CLI prints.
// The JSONL parser handles exactly the flat subset our sinks emit
// (string, number, bool, and flat-array values; strings take every JSON
// escape, \u decoded to UTF-8) — it is a schema reader, not a general
// JSON library.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace dynvote {

struct TraceEvent;

/// One parsed trace line as a flat field map; array values are kept as
/// raw text ("[1,2]"). Returns false on lines that are not JSON objects.
bool ParseTraceLine(std::string_view line,
                    std::map<std::string, std::string>* fields);

struct ProtocolTraceSummary {
  std::uint64_t accesses = 0;
  std::uint64_t granted = 0;
  std::uint64_t denied = 0;
  /// reason name -> count, over access events.
  std::map<std::string, std::uint64_t> access_reasons;
  /// reason name -> count, over fresh quorum evaluations.
  std::map<std::string, std::uint64_t> quorum_reasons;
  std::uint64_t quorum_evaluations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t availability_transitions = 0;
  /// Serving-stage records (open-loop runs only, see docs/serving.md):
  /// event count, summed per-access control messages, and the
  /// arrival-to-completion latency histogram. The histogram is built
  /// with the same HistogramData the serving run's MetricsShard uses, so
  /// trace-derived and metrics-derived numbers reconcile exactly.
  std::uint64_t serving_events = 0;
  std::uint64_t serving_messages = 0;
  HistogramData serving_latency_ms;
};

struct TraceSummary {
  /// Schema string from the header ("" if the trace had none).
  std::string schema;
  /// JSONL: physical lines. Binary: header plus decoded event records.
  std::uint64_t total_lines = 0;
  std::uint64_t malformed_lines = 0;
  std::uint64_t net_events = 0;
  std::uint64_t sim_events = 0;
  std::map<std::string, ProtocolTraceSummary> per_protocol;
  /// Decoder error for a binary trace that ended mid-record ("" if the
  /// input decoded cleanly). The partial summary above is still valid.
  std::string decode_error;

  /// Human-readable rendering for the trace-summary subcommand.
  std::string ToString() const;
};

/// Folds one decoded event into a summary — the binary-side counterpart
/// of the per-line JSONL fold, so both formats aggregate identically.
void FoldTraceEvent(const TraceEvent& event, TraceSummary* summary);

/// Streams a trace — JSONL or binary, auto-detected — and folds it into
/// a TraceSummary.
TraceSummary SummarizeTrace(std::istream& in);

}  // namespace dynvote
