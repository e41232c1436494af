// The trace reader: flat-JSON line parsing (round-tripping what the
// sinks emit), malformed-line accounting, and the per-protocol summary
// aggregation behind the trace-summary subcommand.

#include "obs/trace_reader.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/counterexample.h"
#include "obs/async_writer.h"
#include "obs/binary_trace.h"
#include "obs/trace_sink.h"

namespace dynvote {
namespace {

TEST(ParseTraceLineTest, ParsesScalarsStringsAndArrays) {
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(ParseTraceLine(
      R"({"ev":"net","t":1.5,"up":false,"components":[3,24]})", &fields));
  EXPECT_EQ(fields.at("ev"), "net");
  EXPECT_EQ(fields.at("t"), "1.5");
  EXPECT_EQ(fields.at("up"), "false");
  EXPECT_EQ(fields.at("components"), "[3,24]");
}

TEST(ParseTraceLineTest, UndoesStringEscapes) {
  std::map<std::string, std::string> fields;
  // The three escape forms the sink emits: \", \\ and \u00XX.
  ASSERT_TRUE(
      ParseTraceLine("{\"name\":\"a\\\"b\\\\c\\u000a\"}", &fields));
  EXPECT_EQ(fields.at("name"), "a\"b\\c\n");
}

std::string ParsedString(const std::string& json_string) {
  std::map<std::string, std::string> fields;
  EXPECT_TRUE(ParseTraceLine("{\"s\":" + json_string + "}", &fields))
      << json_string;
  return fields["s"];
}

bool ParsesAsString(const std::string& json_string) {
  std::map<std::string, std::string> fields;
  return ParseTraceLine("{\"s\":" + json_string + "}", &fields);
}

TEST(ParseTraceLineTest, DecodesEveryJsonEscape) {
  EXPECT_EQ(ParsedString(R"("\b")"), "\b");
  EXPECT_EQ(ParsedString(R"("\f")"), "\f");
  EXPECT_EQ(ParsedString(R"("\n")"), "\n");
  EXPECT_EQ(ParsedString(R"("\r")"), "\r");
  EXPECT_EQ(ParsedString(R"("\t")"), "\t");
  EXPECT_EQ(ParsedString(R"("\/")"), "/");
  EXPECT_EQ(ParsedString(R"("\"")"), "\"");
  EXPECT_EQ(ParsedString(R"("\\")"), "\\");
  EXPECT_EQ(ParsedString(R"("M\tCV")"), "M\tCV");
}

TEST(ParseTraceLineTest, DecodesUnicodeEscapesToUtf8) {
  EXPECT_EQ(ParsedString(R"("\u0000")"), std::string(1, '\0'));
  EXPECT_EQ(ParsedString(R"("\u007f")"), "\x7f");
  EXPECT_EQ(ParsedString(R"("\u00e9")"), "\xc3\xa9");        // é
  EXPECT_EQ(ParsedString(R"("\u20AC")"), "\xe2\x82\xac");    // €
  EXPECT_EQ(ParsedString(R"("\ud83d\ude00")"),                 // U+1F600
            "\xf0\x9f\x98\x80");
  EXPECT_EQ(ParsedString(R"("a\u20acb")"), "a\xe2\x82\xac" "b");
}

TEST(ParseTraceLineTest, MalformedEscapesFailTheLine) {
  EXPECT_FALSE(ParsesAsString(R"("\q")"));
  EXPECT_FALSE(ParsesAsString(R"("\u12")"));      // too few digits
  EXPECT_FALSE(ParsesAsString(R"("\u12g4")"));    // not hex
  EXPECT_FALSE(ParsesAsString(R"("\u-123")"));    // sign
  EXPECT_FALSE(ParsesAsString(R"("\u+123")"));
  EXPECT_FALSE(ParsesAsString(R"("\ud83d")"));    // lone high surrogate
  EXPECT_FALSE(ParsesAsString(R"("\ud83dx")"));
  EXPECT_FALSE(ParsesAsString(R"("\ud83d\u0041")"));  // not a low one
  EXPECT_FALSE(ParsesAsString(R"("\ude00")"));    // lone low surrogate
  // The hex digits are read from the string itself, never past its end.
  std::map<std::string, std::string> fields;
  const std::string line = "{\"s\":\"\\u00";
  EXPECT_FALSE(ParseTraceLine(std::string_view(line), &fields));
  EXPECT_FALSE(ParseTraceLine(std::string_view(line).substr(0, 7), &fields));
}

TEST(ParseTraceLineTest, RejectsNonObjects) {
  std::map<std::string, std::string> fields;
  EXPECT_FALSE(ParseTraceLine("not json", &fields));
  EXPECT_FALSE(ParseTraceLine("[1,2]", &fields));
  EXPECT_FALSE(ParseTraceLine(R"({"unterminated":"str)", &fields));
  EXPECT_FALSE(ParseTraceLine(R"({"no_value":})", &fields));
  EXPECT_TRUE(ParseTraceLine("{}", &fields));
  EXPECT_TRUE(fields.empty());
}

TEST(ParseTraceLineTest, RoundTripsSinkOutput) {
  TraceEvent e;
  e.type = TraceEventType::kQuorum;
  e.t = 0.1 + 0.2;
  e.protocol = "OTDV";
  e.granted = true;
  e.reason = QuorumReason::kGrantedTieLex;
  e.group = 31;
  std::string line;
  AppendTraceEventJson(e, &line);
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(ParseTraceLine(line, &fields)) << line;
  EXPECT_EQ(fields.at("ev"), "quorum");
  EXPECT_EQ(fields.at("protocol"), "OTDV");
  EXPECT_EQ(fields.at("granted"), "true");
  EXPECT_EQ(fields.at("reason"), "granted_tie_lex");
  EXPECT_EQ(fields.at("t"), "0.30000000000000004");
}

/// Builds a small synthetic trace through the real pipeline (btrace
/// records rendered as JSONL) so reader tests track the writer format
/// automatically.
std::string SyntheticTrace() {
  std::ostringstream out;
  out << TraceHeaderLine(7) << "\n";
  JsonlPageSink pages(&out);
  BinaryTraceSink sink(&pages);

  TraceEvent sim;
  sim.type = TraceEventType::kSim;
  sim.op = "dispatch";
  sink.Write(sim);

  TraceEvent net;
  net.type = TraceEventType::kNet;
  net.site = 1;
  net.components = {1};
  sink.Write(net);

  TraceEvent quorum;
  quorum.type = TraceEventType::kQuorum;
  quorum.protocol = "LDV";
  quorum.granted = true;
  quorum.reason = QuorumReason::kGrantedMajority;
  sink.Write(quorum);
  quorum.reason = QuorumReason::kCacheHit;
  sink.Write(quorum);
  sink.Write(quorum);

  TraceEvent access;
  access.type = TraceEventType::kAccess;
  access.protocol = "LDV";
  access.granted = true;
  access.reason = QuorumReason::kGrantedMajority;
  sink.Write(access);
  access.granted = false;
  access.reason = QuorumReason::kDeniedTieLost;
  sink.Write(access);

  TraceEvent avail;
  avail.type = TraceEventType::kAvail;
  avail.protocol = "LDV";
  avail.available = false;
  sink.Write(avail);
  sink.Flush();
  EXPECT_TRUE(sink.ok()) << sink.error();
  return out.str();
}

TEST(SummarizeTraceTest, AggregatesPerProtocol) {
  std::istringstream in(SyntheticTrace());
  TraceSummary summary = SummarizeTrace(in);
  EXPECT_EQ(summary.schema, kTraceSchema);
  EXPECT_EQ(summary.total_lines, 9u);
  EXPECT_EQ(summary.malformed_lines, 0u);
  EXPECT_EQ(summary.sim_events, 1u);
  EXPECT_EQ(summary.net_events, 1u);
  ASSERT_EQ(summary.per_protocol.count("LDV"), 1u);
  const ProtocolTraceSummary& ldv = summary.per_protocol.at("LDV");
  EXPECT_EQ(ldv.quorum_evaluations, 1u);
  EXPECT_EQ(ldv.cache_hits, 2u);
  EXPECT_EQ(ldv.quorum_reasons.at("granted_majority"), 1u);
  EXPECT_EQ(ldv.accesses, 2u);
  EXPECT_EQ(ldv.granted, 1u);
  EXPECT_EQ(ldv.denied, 1u);
  EXPECT_EQ(ldv.access_reasons.at("denied_tie_lost"), 1u);
  EXPECT_EQ(ldv.availability_transitions, 1u);
}

TEST(SummarizeTraceTest, CountsMalformedLinesAndKeepsGoing) {
  std::istringstream in(
      "garbage\n"
      "{\"ev\":\"sim\",\"t\":0,\"seq\":0,\"op\":\"x\"}\n"
      "{\"no_ev_key\":1}\n"
      "{\"ev\":\"quorum\"}\n");  // quorum without protocol
  TraceSummary summary = SummarizeTrace(in);
  EXPECT_EQ(summary.total_lines, 4u);
  EXPECT_EQ(summary.malformed_lines, 3u);
  EXPECT_EQ(summary.sim_events, 1u);
}

TEST(SummarizeTraceTest, EmptyInputIsEmptySummary) {
  std::istringstream in("");
  TraceSummary summary = SummarizeTrace(in);
  EXPECT_EQ(summary.total_lines, 0u);
  EXPECT_TRUE(summary.schema.empty());
  EXPECT_TRUE(summary.per_protocol.empty());
}

TEST(SummarizeTraceTest, ServingEventsFoldIdenticallyFromBothFormats) {
  // Serving records reconcile exactly with the serving metrics because
  // the reader accumulates them into the very same HistogramData the
  // metrics shard uses — assert that, and that the JSONL and binary
  // paths (which share FoldTraceEvent) agree field for field.
  std::vector<TraceEvent> events;
  HistogramData expected_latency;
  std::uint64_t expected_msgs = 0;
  for (int i = 0; i < 6; ++i) {
    TraceEvent e;
    e.type = TraceEventType::kServing;
    e.t = 0.5 * i;
    e.seq = static_cast<std::uint64_t>(i);
    e.protocol = "ODV";
    e.write = (i % 2) == 0;
    e.origin = i % 3;
    e.granted = i != 4;
    e.latency_ms = 1.25 * (i + 1);
    e.msgs = static_cast<std::uint32_t>(2 * i);
    e.depth = static_cast<std::uint32_t>(i % 2);
    events.push_back(e);
    expected_latency.Observe(e.latency_ms);
    expected_msgs += e.msgs;
  }

  std::ostringstream jsonl;
  jsonl << TraceHeaderLine(11) << "\n";
  JsonlPageSink jsonl_pages(&jsonl);
  BinaryTraceSink sink(&jsonl_pages);
  for (const TraceEvent& e : events) sink.Write(e);
  sink.Flush();
  ASSERT_TRUE(sink.ok()) << sink.error();

  std::istringstream jsonl_in(jsonl.str());
  TraceSummary from_jsonl = SummarizeTrace(jsonl_in);
  EXPECT_EQ(from_jsonl.malformed_lines, 0u);
  ASSERT_EQ(from_jsonl.per_protocol.count("ODV"), 1u);
  const ProtocolTraceSummary& odv = from_jsonl.per_protocol.at("ODV");
  EXPECT_EQ(odv.serving_events, events.size());
  EXPECT_EQ(odv.serving_messages, expected_msgs);
  EXPECT_EQ(odv.accesses, 0u);  // serving events are not access events
  EXPECT_EQ(odv.serving_latency_ms.count, expected_latency.count);
  EXPECT_EQ(odv.serving_latency_ms.sum, expected_latency.sum);
  EXPECT_EQ(odv.serving_latency_ms.min, expected_latency.min);
  EXPECT_EQ(odv.serving_latency_ms.max, expected_latency.max);
  EXPECT_EQ(odv.serving_latency_ms.Buckets(), expected_latency.Buckets());

  std::ostringstream binary;
  binary << BinaryTraceHeader(11);
  StreamPageSink pages(&binary);
  BinaryTraceSink bsink(&pages, 256);
  for (const TraceEvent& e : events) bsink.Write(e);
  bsink.Flush();
  ASSERT_TRUE(bsink.ok()) << bsink.error();
  std::istringstream binary_in(binary.str());
  TraceSummary from_binary = SummarizeTrace(binary_in);
  EXPECT_TRUE(from_binary.decode_error.empty()) << from_binary.decode_error;
  ASSERT_EQ(from_binary.per_protocol.count("ODV"), 1u);
  const ProtocolTraceSummary& bodv = from_binary.per_protocol.at("ODV");
  EXPECT_EQ(bodv.serving_events, odv.serving_events);
  EXPECT_EQ(bodv.serving_messages, odv.serving_messages);
  EXPECT_EQ(bodv.serving_latency_ms.sum, odv.serving_latency_ms.sum);
  EXPECT_EQ(bodv.serving_latency_ms.Buckets(),
            odv.serving_latency_ms.Buckets());

  EXPECT_NE(from_jsonl.ToString().find("serving: events=6"),
            std::string::npos)
      << from_jsonl.ToString();
}

std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

TEST(SummarizeTraceTest, ReadsEscapedProtocolNames) {
  const std::string trace = SyntheticTrace();
  const std::string edited = ReplaceAll(trace, R"("protocol":"LDV")",
                                        R"("protocol":"M\tCV")");
  ASSERT_NE(edited, trace);
  std::istringstream in(edited);
  TraceSummary summary = SummarizeTrace(in);
  EXPECT_EQ(summary.malformed_lines, 0u);
  EXPECT_EQ(summary.per_protocol.count("MtCV"), 0u);
  ASSERT_EQ(summary.per_protocol.count("M\tCV"), 1u);
  EXPECT_EQ(summary.per_protocol.at("M\tCV").accesses, 2u);
}

TEST(CounterExampleJsonTest, ReadsEscapedStrings) {
  // tests/check/corpus/tdv_fork_pairs.json with the protocol edited.
  const std::string json = R"({
  "schema": "dynvote-counterexample-v1",
  "protocol": "TDV",
  "topology": "pairs",
  "placement": [0,1,2,3],
  "strict": true,
  "max_granted_groups": 1,
  "oracle": "none",
  "invariant": "mutual_exclusion",
  "step": 3,
  "detail": "2 groups granted (threshold 1), e.g. group {2, 3}",
  "schedule": "toggle_site:0 toggle_site:1 toggle_repeater:0 toggle_site:0"
}
)";
  ASSERT_TRUE(check::ParseCounterExampleJson(json).ok());
  auto parsed = check::ParseCounterExampleJson(
      ReplaceAll(json, R"("TDV")", R"("M\tCV")"));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->protocol, "M\tCV");
  EXPECT_EQ(parsed->topology, "pairs");

  EXPECT_FALSE(check::ParseCounterExampleJson(
                   ReplaceAll(json, R"("TDV")", R"("\uDC00")"))
                   .ok());
  EXPECT_FALSE(check::ParseCounterExampleJson(
                   ReplaceAll(json, R"("TDV")", R"("T\DV")"))
                   .ok());
}

TEST(SummarizeTraceTest, ToStringNamesEveryProtocolSection) {
  std::istringstream in(SyntheticTrace());
  std::string text = SummarizeTrace(in).ToString();
  EXPECT_NE(text.find("schema=dynvote-trace-v1"), std::string::npos) << text;
  EXPECT_NE(text.find("LDV: accesses=2 granted=1 denied=1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("denied_tie_lost"), std::string::npos) << text;
}

}  // namespace
}  // namespace dynvote
