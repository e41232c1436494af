#include "obs/trace_sink.h"

#include <atomic>

#include "util/append.h"

namespace dynvote {
namespace {

// Numbers and strings go through util/append.h, not snprintf: rendering
// them is most of a JSONL trace's cost, and to_chars skips the format
// parsing and the locale while printing the same 17 significant digits,
// so traced and untraced runs (and traced runs on different thread
// counts) stay byte-comparable. Protocol names and op labels are plain
// identifiers; they are escaped anyway so a hostile name cannot corrupt
// the line structure.

void AppendBool(bool value, std::string* out) {
  out->append(value ? "true" : "false");
}

}  // namespace

TraceSink::TraceSink() {
  // Label epochs are handed out from a process-wide counter so no two
  // sinks — however allocated — ever share one. Atomic: worker threads
  // construct per-replication sinks concurrently.
  static std::atomic<std::uint64_t> next_epoch{1};
  label_epoch_ = next_epoch.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t TraceSink::RegisterLabel(std::string_view label) {
  // Sinks without a string table have nothing to intern; their typed
  // writes carry the string itself.
  (void)label;
  return 0;
}

void AppendTraceEventJson(const TraceEvent& event, std::string* out) {
  out->append("{\"ev\":");
  AppendJsonString(TraceEventTypeName(event.type), out);
  out->append(",\"t\":");
  AppendDouble(event.t, out);
  if (event.replication >= 0) {
    out->append(",\"rep\":");
    AppendDecimal(event.replication, out);
  }
  out->append(",\"seq\":");
  AppendDecimal(event.seq, out);
  switch (event.type) {
    case TraceEventType::kNet: {
      out->append(event.repeater ? ",\"repeater\":" : ",\"site\":");
      AppendDecimal(event.site, out);
      out->append(",\"up\":");
      AppendBool(event.up, out);
      out->append(",\"gen\":");
      AppendDecimal(event.generation, out);
      out->append(",\"components\":[");
      for (std::size_t i = 0; i < event.components.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendDecimal(event.components[i], out);
      }
      out->push_back(']');
      break;
    }
    case TraceEventType::kSim: {
      out->append(",\"op\":");
      AppendJsonString(event.op, out);
      break;
    }
    case TraceEventType::kQuorum: {
      out->append(",\"protocol\":");
      AppendJsonString(event.protocol, out);
      out->append(",\"write\":");
      AppendBool(event.write, out);
      out->append(",\"granted\":");
      AppendBool(event.granted, out);
      out->append(",\"reason\":");
      AppendJsonString(QuorumReasonName(event.reason), out);
      out->append(",\"group\":");
      AppendDecimal(event.group, out);
      // The paper's quorum sets, only present for fresh evaluations
      // (cache hits have nothing new to report beyond the group).
      if (event.reason != QuorumReason::kCacheHit) {
        out->append(",\"R\":");
        AppendDecimal(event.set_r, out);
        out->append(",\"Q\":");
        AppendDecimal(event.set_q, out);
        out->append(",\"S\":");
        AppendDecimal(event.set_s, out);
        out->append(",\"T\":");
        AppendDecimal(event.set_t, out);
        out->append(",\"Pm\":");
        AppendDecimal(event.set_pm, out);
      }
      break;
    }
    case TraceEventType::kAccess: {
      out->append(",\"protocol\":");
      AppendJsonString(event.protocol, out);
      out->append(",\"write\":");
      AppendBool(event.write, out);
      out->append(",\"origin\":");
      AppendDecimal(event.origin, out);
      out->append(",\"granted\":");
      AppendBool(event.granted, out);
      out->append(",\"reason\":");
      AppendJsonString(QuorumReasonName(event.reason), out);
      break;
    }
    case TraceEventType::kAvail: {
      out->append(",\"protocol\":");
      AppendJsonString(event.protocol, out);
      out->append(",\"available\":");
      AppendBool(event.available, out);
      break;
    }
    case TraceEventType::kServing: {
      out->append(",\"protocol\":");
      AppendJsonString(event.protocol, out);
      out->append(",\"write\":");
      AppendBool(event.write, out);
      out->append(",\"origin\":");
      AppendDecimal(event.origin, out);
      out->append(",\"granted\":");
      AppendBool(event.granted, out);
      out->append(",\"lat_ms\":");
      AppendDouble(event.latency_ms, out);
      out->append(",\"msgs\":");
      AppendDecimal(event.msgs, out);
      out->append(",\"depth\":");
      AppendDecimal(event.depth, out);
      break;
    }
  }
  out->push_back('}');
}

std::string TraceHeaderLine(std::uint64_t seed) {
  std::string line = "{\"schema\":\"";
  line += kTraceSchema;
  line += "\",\"seed\":";
  AppendDecimal(seed, &line);
  line.push_back('}');
  return line;
}

}  // namespace dynvote
