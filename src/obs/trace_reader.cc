#include "obs/trace_reader.h"

#include <charconv>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <system_error>

#include "obs/binary_trace.h"
#include "obs/trace_event.h"

namespace dynvote {
namespace {

// Renders a ratio as a percentage, or "-" when the denominator is zero
// (header-only traces, protocols that never saw an access). Guarding here
// keeps trace-summary from printing nan/inf on degenerate inputs.
std::string Percent(std::uint64_t numerator, std::uint64_t denominator) {
  if (denominator == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                100.0 * static_cast<double>(numerator) /
                    static_cast<double>(denominator));
  return buf;
}

void SkipSpaces(std::string_view line, std::size_t* pos) {
  while (*pos < line.size() &&
         (line[*pos] == ' ' || line[*pos] == '\t')) {
    ++*pos;
  }
}

// Reads the four hex digits of a \u escape at line[pos, pos + 4).
bool ParseHex4(std::string_view line, std::size_t pos, std::uint32_t* code) {
  if (pos + 4 > line.size()) return false;
  const char* first = line.data() + pos;
  const char* last = first + 4;
  const auto [ptr, ec] = std::from_chars(first, last, *code, 16);
  return ec == std::errc() && ptr == last;
}

void AppendUtf8(std::uint32_t code, std::string* out) {
  auto byte = [out](std::uint32_t b) { out->push_back(static_cast<char>(b)); };
  if (code < 0x80) {
    byte(code);
  } else if (code < 0x800) {
    byte(0xc0 | (code >> 6));
    byte(0x80 | (code & 0x3f));
  } else if (code < 0x10000) {
    byte(0xe0 | (code >> 12));
    byte(0x80 | ((code >> 6) & 0x3f));
    byte(0x80 | (code & 0x3f));
  } else {
    byte(0xf0 | (code >> 18));
    byte(0x80 | ((code >> 12) & 0x3f));
    byte(0x80 | ((code >> 6) & 0x3f));
    byte(0x80 | (code & 0x3f));
  }
}

// Decodes the \u escape whose 'u' is at line[*pos] into UTF-8, joining a
// surrogate pair; leaves *pos on the escape's last hex digit. A lone
// surrogate is malformed.
bool ParseUnicodeEscape(std::string_view line, std::size_t* pos,
                        std::string* out) {
  std::uint32_t code = 0;
  if (!ParseHex4(line, *pos + 1, &code)) return false;
  *pos += 4;
  if (code >= 0xdc00 && code <= 0xdfff) return false;
  if (code >= 0xd800 && code <= 0xdbff) {
    std::uint32_t low = 0;
    if (*pos + 2 >= line.size() || line[*pos + 1] != '\\' ||
        line[*pos + 2] != 'u' || !ParseHex4(line, *pos + 3, &low) ||
        low < 0xdc00 || low > 0xdfff) {
      return false;
    }
    *pos += 6;
    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
  }
  AppendUtf8(code, out);
  return true;
}

// Parses a quoted string, undoing every JSON escape. A malformed escape
// fails the string.
bool ParseString(std::string_view line, std::size_t* pos, std::string* out) {
  if (*pos >= line.size() || line[*pos] != '"') return false;
  ++*pos;
  out->clear();
  while (*pos < line.size()) {
    char c = line[*pos];
    if (c == '"') {
      ++*pos;
      return true;
    }
    if (c == '\\') {
      ++*pos;
      if (*pos >= line.size()) return false;
      switch (line[*pos]) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u':
          if (!ParseUnicodeEscape(line, pos, out)) return false;
          break;
        default:
          return false;
      }
      ++*pos;
    } else {
      out->push_back(c);
      ++*pos;
    }
  }
  return false;
}

// Captures a scalar (number/bool/null) or a flat array as raw text.
bool ParseRawValue(std::string_view line, std::size_t* pos, std::string* out) {
  out->clear();
  if (*pos < line.size() && line[*pos] == '[') {
    std::size_t depth = 0;
    while (*pos < line.size()) {
      char c = line[*pos];
      out->push_back(c);
      ++*pos;
      if (c == '[') ++depth;
      if (c == ']' && --depth == 0) return true;
    }
    return false;
  }
  while (*pos < line.size() && line[*pos] != ',' && line[*pos] != '}') {
    out->push_back(line[*pos]);
    ++*pos;
  }
  return !out->empty();
}

}  // namespace

bool ParseTraceLine(std::string_view line,
                    std::map<std::string, std::string>* fields) {
  fields->clear();
  std::size_t pos = 0;
  SkipSpaces(line, &pos);
  if (pos >= line.size() || line[pos] != '{') return false;
  ++pos;
  SkipSpaces(line, &pos);
  if (pos < line.size() && line[pos] == '}') return true;
  std::string key;
  std::string value;
  while (true) {
    SkipSpaces(line, &pos);
    if (!ParseString(line, &pos, &key)) return false;
    SkipSpaces(line, &pos);
    if (pos >= line.size() || line[pos] != ':') return false;
    ++pos;
    SkipSpaces(line, &pos);
    if (pos < line.size() && line[pos] == '"') {
      if (!ParseString(line, &pos, &value)) return false;
    } else {
      if (!ParseRawValue(line, &pos, &value)) return false;
      // Trim trailing spaces from raw scalars.
      while (!value.empty() && value.back() == ' ') value.pop_back();
    }
    (*fields)[key] = value;
    SkipSpaces(line, &pos);
    if (pos >= line.size()) return false;
    if (line[pos] == '}') return true;
    if (line[pos] != ',') return false;
    ++pos;
  }
}

void FoldTraceEvent(const TraceEvent& event, TraceSummary* summary) {
  switch (event.type) {
    case TraceEventType::kNet:
      ++summary->net_events;
      return;
    case TraceEventType::kSim:
      ++summary->sim_events;
      return;
    case TraceEventType::kAvail:
      ++summary->per_protocol[event.protocol].availability_transitions;
      return;
    case TraceEventType::kQuorum: {
      ProtocolTraceSummary& proto = summary->per_protocol[event.protocol];
      if (event.reason == QuorumReason::kCacheHit) {
        ++proto.cache_hits;
      } else {
        ++proto.quorum_evaluations;
        ++proto.quorum_reasons[std::string(QuorumReasonName(event.reason))];
      }
      return;
    }
    case TraceEventType::kAccess: {
      ProtocolTraceSummary& proto = summary->per_protocol[event.protocol];
      ++proto.accesses;
      if (event.granted) {
        ++proto.granted;
      } else {
        ++proto.denied;
      }
      ++proto.access_reasons[std::string(QuorumReasonName(event.reason))];
      return;
    }
    case TraceEventType::kServing: {
      ProtocolTraceSummary& proto = summary->per_protocol[event.protocol];
      ++proto.serving_events;
      proto.serving_messages += event.msgs;
      proto.serving_latency_ms.Observe(event.latency_ms);
      return;
    }
  }
}

namespace {

TraceSummary SummarizeBinaryTrace(std::istream& in) {
  TraceSummary summary;
  BinaryTraceReader reader(&in);
  Status header = reader.ReadHeader();
  if (!header.ok()) {
    ++summary.total_lines;
    ++summary.malformed_lines;
    summary.decode_error = header.ToString();
    return summary;
  }
  summary.schema = reader.schema();
  ++summary.total_lines;  // the header, mirroring the JSONL header line
  TraceEvent event;
  for (;;) {
    auto more = reader.Next(&event);
    if (!more.ok()) {
      ++summary.total_lines;
      ++summary.malformed_lines;
      summary.decode_error = more.status().ToString();
      break;
    }
    if (!*more) break;
    ++summary.total_lines;
    FoldTraceEvent(event, &summary);
  }
  return summary;
}

}  // namespace

TraceSummary SummarizeTrace(std::istream& in) {
  if (LooksLikeBinaryTrace(in)) return SummarizeBinaryTrace(in);
  TraceSummary summary;
  std::string line;
  std::map<std::string, std::string> fields;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++summary.total_lines;
    if (!ParseTraceLine(line, &fields)) {
      ++summary.malformed_lines;
      continue;
    }
    if (auto it = fields.find("schema"); it != fields.end()) {
      summary.schema = it->second;
      continue;
    }
    auto ev = fields.find("ev");
    if (ev == fields.end()) {
      ++summary.malformed_lines;
      continue;
    }
    const std::string& type = ev->second;
    if (type == "net") {
      ++summary.net_events;
      continue;
    }
    if (type == "sim") {
      ++summary.sim_events;
      continue;
    }
    auto proto_it = fields.find("protocol");
    if (proto_it == fields.end()) {
      ++summary.malformed_lines;
      continue;
    }
    ProtocolTraceSummary& proto = summary.per_protocol[proto_it->second];
    if (type == "avail") {
      ++proto.availability_transitions;
    } else if (type == "quorum") {
      const std::string& reason = fields["reason"];
      if (reason == "cache_hit") {
        ++proto.cache_hits;
      } else {
        ++proto.quorum_evaluations;
        ++proto.quorum_reasons[reason];
      }
    } else if (type == "access") {
      ++proto.accesses;
      if (fields["granted"] == "true") {
        ++proto.granted;
      } else {
        ++proto.denied;
      }
      ++proto.access_reasons[fields["reason"]];
    } else if (type == "serving") {
      ++proto.serving_events;
      proto.serving_messages +=
          std::strtoull(fields["msgs"].c_str(), nullptr, 10);
      // strtod round-trips the sink's 17-digit rendering exactly, so this
      // histogram matches a binary-trace fold (and the run's metrics
      // shard) bit for bit.
      proto.serving_latency_ms.Observe(
          std::strtod(fields["lat_ms"].c_str(), nullptr));
    } else {
      ++summary.malformed_lines;
    }
  }
  return summary;
}

std::string TraceSummary::ToString() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "trace: schema=%s lines=%" PRIu64 " malformed=%" PRIu64
                " net=%" PRIu64 " sim=%" PRIu64 "\n",
                schema.empty() ? "(none)" : schema.c_str(), total_lines,
                malformed_lines, net_events, sim_events);
  out.append(buf);
  if (!decode_error.empty()) {
    out.append("warning: trace truncated: ");
    out.append(decode_error);
    out.push_back('\n');
  }
  for (const auto& [name, proto] : per_protocol) {
    std::snprintf(buf, sizeof(buf),
                  "\n%s: accesses=%" PRIu64 " granted=%" PRIu64
                  " denied=%" PRIu64 " quorum_evals=%" PRIu64
                  " cache_hits=%" PRIu64 " avail_transitions=%" PRIu64 "\n",
                  name.c_str(), proto.accesses, proto.granted, proto.denied,
                  proto.quorum_evaluations, proto.cache_hits,
                  proto.availability_transitions);
    out.append(buf);
    // Rates are "-" when the denominator is zero, never nan/inf.
    std::snprintf(buf, sizeof(buf),
                  "  grant_rate=%s cache_hit_rate=%s\n",
                  Percent(proto.granted, proto.accesses).c_str(),
                  Percent(proto.cache_hits,
                          proto.quorum_evaluations + proto.cache_hits)
                      .c_str());
    out.append(buf);
    if (proto.serving_events > 0) {
      const HistogramData& lat = proto.serving_latency_ms;
      std::snprintf(buf, sizeof(buf),
                    "  serving: events=%" PRIu64
                    " msgs_per_access=%.2f p50=%.3fms p90=%.3fms "
                    "p99=%.3fms p999=%.3fms\n",
                    proto.serving_events,
                    static_cast<double>(proto.serving_messages) /
                        static_cast<double>(proto.serving_events),
                    lat.Quantile(0.50), lat.Quantile(0.90),
                    lat.Quantile(0.99), lat.Quantile(0.999));
      out.append(buf);
    }
    if (!proto.access_reasons.empty()) {
      out.append("  access reasons:\n");
      for (const auto& [reason, count] : proto.access_reasons) {
        std::snprintf(buf, sizeof(buf), "    %-28s %" PRIu64 "\n",
                      reason.c_str(), count);
        out.append(buf);
      }
    }
    if (!proto.quorum_reasons.empty()) {
      out.append("  quorum reasons:\n");
      for (const auto& [reason, count] : proto.quorum_reasons) {
        std::snprintf(buf, sizeof(buf), "    %-28s %" PRIu64 "\n",
                      reason.c_str(), count);
        out.append(buf);
      }
    }
  }
  return out;
}

}  // namespace dynvote
