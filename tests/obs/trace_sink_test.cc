// JSONL rendering of every event type, string escaping, the schema
// header line, and the JSONL page destination that renders recorded
// btrace pages.

#include "obs/trace_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "obs/async_writer.h"
#include "obs/binary_trace.h"

namespace dynvote {
namespace {

TraceEvent SimEvent(double t, std::uint64_t seq) {
  TraceEvent e;
  e.type = TraceEventType::kSim;
  e.t = t;
  e.seq = seq;
  e.op = "dispatch";
  return e;
}

TEST(JsonlTest, SimEventRendersCompactly) {
  std::string line;
  AppendTraceEventJson(SimEvent(2.5, 7), &line);
  EXPECT_EQ(line, "{\"ev\":\"sim\",\"t\":2.5,\"seq\":7,\"op\":\"dispatch\"}");
}

TEST(JsonlTest, ReplicationIndexAppearsOnlyWhenSet) {
  TraceEvent e = SimEvent(1.0, 0);
  e.replication = 3;
  std::string line;
  AppendTraceEventJson(e, &line);
  EXPECT_NE(line.find("\"rep\":3"), std::string::npos) << line;
  line.clear();
  e.replication = -1;
  AppendTraceEventJson(e, &line);
  EXPECT_EQ(line.find("\"rep\""), std::string::npos) << line;
}

TEST(JsonlTest, NetEventCarriesComponentMasks) {
  TraceEvent e;
  e.type = TraceEventType::kNet;
  e.t = 4.0;
  e.seq = 9;
  e.site = 2;
  e.up = false;
  e.generation = 11;
  e.components = {0x3, 0x18};
  std::string line;
  AppendTraceEventJson(e, &line);
  EXPECT_EQ(line,
            "{\"ev\":\"net\",\"t\":4,\"seq\":9,\"site\":2,\"up\":false,"
            "\"gen\":11,\"components\":[3,24]}");
}

TEST(JsonlTest, RepeaterFlipUsesTheRepeaterKey) {
  TraceEvent e;
  e.type = TraceEventType::kNet;
  e.site = 0;
  e.repeater = true;
  e.up = true;
  std::string line;
  AppendTraceEventJson(e, &line);
  EXPECT_NE(line.find("\"repeater\":0"), std::string::npos) << line;
  EXPECT_EQ(line.find("\"site\""), std::string::npos) << line;
}

TEST(JsonlTest, QuorumEventCarriesThePaperSets) {
  TraceEvent e;
  e.type = TraceEventType::kQuorum;
  e.protocol = "TDV";
  e.granted = true;
  e.reason = QuorumReason::kGrantedTopologicalCarry;
  e.group = 0x1F;
  e.set_r = 0x0F;
  e.set_q = 0x02;
  e.set_s = 0x02;
  e.set_t = 0x03;
  e.set_pm = 0x03;
  std::string line;
  AppendTraceEventJson(e, &line);
  EXPECT_NE(line.find("\"reason\":\"granted_topological_carry\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"R\":15"), std::string::npos) << line;
  EXPECT_NE(line.find("\"Q\":2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"S\":2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"T\":3"), std::string::npos) << line;
  EXPECT_NE(line.find("\"Pm\":3"), std::string::npos) << line;
}

TEST(JsonlTest, CacheHitOmitsThePaperSets) {
  TraceEvent e;
  e.type = TraceEventType::kQuorum;
  e.protocol = "LDV";
  e.reason = QuorumReason::kCacheHit;
  e.group = 0x7;
  e.set_r = 0x7;  // populated or not, a cache hit must not render sets
  std::string line;
  AppendTraceEventJson(e, &line);
  EXPECT_NE(line.find("\"reason\":\"cache_hit\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"group\":7"), std::string::npos) << line;
  EXPECT_EQ(line.find("\"R\":"), std::string::npos) << line;
  EXPECT_EQ(line.find("\"Pm\":"), std::string::npos) << line;
}

TEST(JsonlTest, StringsAreEscaped) {
  TraceEvent e;
  e.type = TraceEventType::kAvail;
  e.protocol = "a\"b\\c\n";
  e.available = true;
  std::string line;
  AppendTraceEventJson(e, &line);
  EXPECT_NE(line.find("\"a\\\"b\\\\c\\u000a\""), std::string::npos) << line;
}

TEST(JsonlTest, DoublesRoundTripAtFullPrecision) {
  TraceEvent e = SimEvent(0.1 + 0.2, 0);  // classic non-representable sum
  std::string line;
  AppendTraceEventJson(e, &line);
  EXPECT_NE(line.find("0.30000000000000004"), std::string::npos) << line;
}

TEST(JsonlTest, SinkWritesOneLinePerEvent) {
  std::ostringstream out;
  JsonlPageSink pages(&out);
  BinaryTraceSink sink(&pages);
  sink.Write(SimEvent(1.0, 1));
  sink.Write(SimEvent(2.0, 2));
  sink.Flush();
  EXPECT_EQ(sink.total_events(), 2u);
  EXPECT_EQ(sink.events_written(), 2u);
  std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_EQ(text.find('{'), 0u);
}

TEST(JsonlTest, HeaderLineNamesSchemaAndSeed) {
  EXPECT_EQ(TraceHeaderLine(42),
            std::string("{\"schema\":\"") + kTraceSchema +
                "\",\"seed\":42}");
}

}  // namespace
}  // namespace dynvote
