#include "obs/trace_sink.h"

#include <atomic>
#include <charconv>
#include <cstdio>

namespace dynvote {
namespace {

// Numbers go through std::to_chars, not snprintf: rendering them is most
// of a JSONL trace's cost, and to_chars skips the format parsing and the
// locale. Seventeen significant digits in the general format is
// specified to print what printf's %.17g prints, which round-trips every
// double, so traced and untraced runs (and traced runs on different
// thread counts) stay byte-comparable.
void AppendDouble(double value, std::string* out) {
  char buf[32];  // sign, 17 digits, point, exponent: at most 24
  const char* end = std::to_chars(buf, buf + sizeof(buf), value,
                                  std::chars_format::general, 17)
                        .ptr;
  out->append(buf, static_cast<std::size_t>(end - buf));
}

template <typename Int>
void AppendInteger(Int value, std::string* out) {
  char buf[24];  // 20 digits of 2^64 - 1, or a sign and 10 digits
  const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out->append(buf, static_cast<std::size_t>(end - buf));
}

void AppendU64(std::uint64_t value, std::string* out) {
  AppendInteger(value, out);
}

void AppendInt(int value, std::string* out) { AppendInteger(value, out); }

void AppendBool(bool value, std::string* out) {
  out->append(value ? "true" : "false");
}

// Protocol names and op labels are plain identifiers; escape anyway so a
// hostile name cannot corrupt the line structure.
void AppendJsonString(std::string_view value, std::string* out) {
  out->push_back('"');
  for (char c : value) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
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
    AppendInt(event.replication, out);
  }
  out->append(",\"seq\":");
  AppendU64(event.seq, out);
  switch (event.type) {
    case TraceEventType::kNet: {
      out->append(event.repeater ? ",\"repeater\":" : ",\"site\":");
      AppendInt(event.site, out);
      out->append(",\"up\":");
      AppendBool(event.up, out);
      out->append(",\"gen\":");
      AppendU64(event.generation, out);
      out->append(",\"components\":[");
      for (std::size_t i = 0; i < event.components.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendU64(event.components[i], out);
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
      AppendU64(event.group, out);
      // The paper's quorum sets, only present for fresh evaluations
      // (cache hits have nothing new to report beyond the group).
      if (event.reason != QuorumReason::kCacheHit) {
        out->append(",\"R\":");
        AppendU64(event.set_r, out);
        out->append(",\"Q\":");
        AppendU64(event.set_q, out);
        out->append(",\"S\":");
        AppendU64(event.set_s, out);
        out->append(",\"T\":");
        AppendU64(event.set_t, out);
        out->append(",\"Pm\":");
        AppendU64(event.set_pm, out);
      }
      break;
    }
    case TraceEventType::kAccess: {
      out->append(",\"protocol\":");
      AppendJsonString(event.protocol, out);
      out->append(",\"write\":");
      AppendBool(event.write, out);
      out->append(",\"origin\":");
      AppendInt(event.origin, out);
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
      AppendInt(event.origin, out);
      out->append(",\"granted\":");
      AppendBool(event.granted, out);
      out->append(",\"lat_ms\":");
      AppendDouble(event.latency_ms, out);
      out->append(",\"msgs\":");
      AppendU64(event.msgs, out);
      out->append(",\"depth\":");
      AppendU64(event.depth, out);
      break;
    }
  }
  out->push_back('}');
}

std::string TraceHeaderLine(std::uint64_t seed) {
  std::string line = "{\"schema\":\"";
  line += kTraceSchema;
  line += "\",\"seed\":";
  AppendU64(seed, &line);
  line.push_back('}');
  return line;
}

}  // namespace dynvote
