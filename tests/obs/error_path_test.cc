// Error paths of the observability plumbing: the trace reader on
// truncated and garbage input, the JSONL trace pipeline (btrace pages
// rendered by a JsonlPageSink) on a stream that fails, and WriteFile on
// paths that cannot be created. None of these may crash, and failures
// must surface as counted malformed lines, sticky sink error state or a
// clean Status — never as an exception.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <streambuf>

#include <gtest/gtest.h>

#include "model/export.h"
#include "obs/async_writer.h"
#include "obs/binary_trace.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"

namespace dynvote {
namespace {

/// A streambuf that accepts `limit` bytes and then fails every write —
/// the unit-test stand-in for a disk filling up mid-trace.
class FailingStreambuf : public std::streambuf {
 public:
  explicit FailingStreambuf(std::size_t limit) : limit_(limit) {}

 protected:
  int overflow(int ch) override {
    if (written_ >= limit_) return traits_type::eof();
    ++written_;
    return ch;
  }
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    std::streamsize room =
        static_cast<std::streamsize>(limit_ - written_);
    std::streamsize accepted = std::min(n, room);
    written_ += static_cast<std::size_t>(accepted);
    return accepted;  // a short write makes the ostream set badbit
  }

 private:
  std::size_t limit_;
  std::size_t written_ = 0;
};

TEST(TraceReaderErrorTest, GarbageLinesAreCountedNotFatal) {
  std::istringstream in(
      "this is not json\n"
      "{\"ev\":\"sim\",\"t\":1.0,\"seq\":1,\"op\":\"x\"}\n"
      "\x01\x02\x03 binary junk\n"
      "[\"an\",\"array\",\"line\"]\n"
      "{\"unterminated\": \"value\n");
  TraceSummary summary = SummarizeTrace(in);
  EXPECT_EQ(summary.total_lines, 5u);
  EXPECT_EQ(summary.sim_events, 1u);
  EXPECT_EQ(summary.malformed_lines, 4u);
}

TEST(TraceReaderErrorTest, TruncatedTraceStillSummarizesThePrefix) {
  // A trace cut off mid-write: header, one good event, then a partial
  // line with no trailing newline.
  std::istringstream in(
      "{\"schema\":\"dynvote-trace-v1\",\"seed\":7}\n"
      "{\"ev\":\"sim\",\"t\":1.0,\"seq\":1,\"op\":\"site_fail\"}\n"
      "{\"ev\":\"sim\",\"t\":2.0,\"se");
  TraceSummary summary = SummarizeTrace(in);
  EXPECT_EQ(summary.schema, "dynvote-trace-v1");
  EXPECT_EQ(summary.sim_events, 1u);
  EXPECT_GE(summary.malformed_lines, 1u);
}

TEST(TraceReaderErrorTest, EmptyStreamYieldsEmptySummary) {
  std::istringstream in("");
  TraceSummary summary = SummarizeTrace(in);
  EXPECT_EQ(summary.total_lines, 0u);
  EXPECT_EQ(summary.malformed_lines, 0u);
  EXPECT_TRUE(summary.schema.empty());
  // ToString on an empty summary must also be safe.
  EXPECT_FALSE(summary.ToString().empty());
}

TEST(TraceReaderErrorTest, ParseTraceLineRejectsNonObjects) {
  std::map<std::string, std::string> fields;
  EXPECT_FALSE(ParseTraceLine("", &fields));
  EXPECT_FALSE(ParseTraceLine("42", &fields));
  EXPECT_FALSE(ParseTraceLine("[1,2]", &fields));
  EXPECT_FALSE(ParseTraceLine("{\"key\": }", &fields));
  EXPECT_FALSE(ParseTraceLine("{\"key\"}", &fields));
}

TEST(JsonlTraceSinkErrorTest, FailedStreamDoesNotCrashAndKeepsCounting) {
  // An ofstream on an unwritable path is open()-failed from the start;
  // the JSONL pipeline must tolerate writing into it indefinitely.
  std::ofstream out("/nonexistent-dir-dynvote/trace.jsonl");
  ASSERT_FALSE(out.good());
  JsonlPageSink pages(&out);
  BinaryTraceSink sink(&pages, /*page_bytes=*/64);
  TraceEvent e;
  e.type = TraceEventType::kSim;
  e.op = "site_fail";
  for (int i = 0; i < 100; ++i) {
    e.seq = static_cast<std::uint64_t>(i);
    sink.Write(e);
  }
  sink.Flush();
  EXPECT_EQ(sink.total_events(), 100u);
  EXPECT_FALSE(out.good());
  // The failure is no longer silent: error state is set and the
  // written count exposes that nothing landed.
  EXPECT_FALSE(sink.ok());
  EXPECT_FALSE(sink.error().empty());
  EXPECT_EQ(sink.events_written(), 0u);
}

TEST(JsonlTraceSinkErrorTest, MidStreamFailureSurfacesAndReconciles) {
  // Regression: the JSONL writer used to ignore stream state entirely,
  // so a disk filling up mid-run silently truncated the trace while
  // total_events() kept climbing. Now the first failed page sets sticky
  // error state and events_written() stops, so the CLI can report
  // "M of N events written".
  FailingStreambuf buf(150);  // room for a couple of lines, then ENOSPC
  std::ostream out(&buf);
  JsonlPageSink pages(&out);
  // Pages of a few records each: the first lands whole, a later one
  // hits the full disk.
  BinaryTraceSink sink(&pages, /*page_bytes=*/16);
  TraceEvent e;
  e.type = TraceEventType::kSim;
  e.op = "site_fail";
  for (int i = 0; i < 50; ++i) {
    e.seq = static_cast<std::uint64_t>(i);
    sink.Write(e);
  }
  EXPECT_EQ(sink.total_events(), 50u);
  EXPECT_FALSE(sink.ok());
  EXPECT_FALSE(sink.error().empty());
  EXPECT_GE(sink.events_written(), 1u);  // the lines that fit
  EXPECT_LT(sink.events_written(), 50u);
  // Flush on a failed sink stays failed and must not clear the error.
  sink.Flush();
  EXPECT_FALSE(sink.ok());
}

TEST(JsonlTraceSinkErrorTest, FlushDetectsDeferredFailure) {
  std::ostringstream out;
  JsonlPageSink pages(&out);
  BinaryTraceSink sink(&pages);
  TraceEvent e;
  e.type = TraceEventType::kSim;
  e.op = "x";
  sink.Write(e);
  EXPECT_TRUE(sink.ok());
  out.setstate(std::ios::badbit);  // failure lands between write and flush
  sink.Flush();
  EXPECT_FALSE(sink.ok());
  EXPECT_LT(sink.events_written(), sink.total_events());
}

TEST(TraceSummaryRatesTest, ZeroDenominatorsRenderDashNotNan) {
  // A protocol with availability transitions but no accesses and no
  // quorum evaluations: every rate denominator is zero.
  std::istringstream in(
      "{\"schema\":\"dynvote-trace-v1\",\"seed\":1}\n"
      "{\"ev\":\"avail\",\"t\":1,\"seq\":0,\"protocol\":\"DV\","
      "\"available\":false}\n");
  TraceSummary summary = SummarizeTrace(in);
  std::string text = summary.ToString();
  EXPECT_NE(text.find("grant_rate=- cache_hit_rate=-"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
}

TEST(TraceSummaryRatesTest, HeaderOnlyTracesAreSafeInBothFormats) {
  std::istringstream jsonl("{\"schema\":\"dynvote-trace-v1\",\"seed\":3}\n");
  TraceSummary js = SummarizeTrace(jsonl);
  EXPECT_EQ(js.schema, "dynvote-trace-v1");
  EXPECT_EQ(js.malformed_lines, 0u);
  EXPECT_FALSE(js.ToString().empty());

  std::istringstream binary(BinaryTraceHeader(3));
  TraceSummary bs = SummarizeTrace(binary);
  EXPECT_EQ(bs.schema, kBinaryTraceSchema);
  EXPECT_EQ(bs.total_lines, 1u);
  EXPECT_EQ(bs.malformed_lines, 0u);
  EXPECT_TRUE(bs.decode_error.empty());
  EXPECT_FALSE(bs.ToString().empty());
}

TEST(TraceSummaryRatesTest, TruncatedBinaryTraceSummarizesThePrefix) {
  std::ostringstream encoded;
  encoded << BinaryTraceHeader(9);
  StreamPageSink pages(&encoded);
  BinaryTraceSink sink(&pages);
  TraceEvent e;
  e.type = TraceEventType::kSim;
  e.op = "site_fail";
  for (int i = 0; i < 10; ++i) {
    e.seq = static_cast<std::uint64_t>(i);
    sink.Write(e);
  }
  sink.Flush();
  std::string file = encoded.str();
  std::istringstream in(file.substr(0, file.size() - 4));
  TraceSummary summary = SummarizeTrace(in);
  EXPECT_EQ(summary.schema, kBinaryTraceSchema);
  EXPECT_GE(summary.sim_events, 1u);
  EXPECT_EQ(summary.malformed_lines, 1u);
  EXPECT_FALSE(summary.decode_error.empty());
  std::string text = summary.ToString();
  EXPECT_NE(text.find("malformed=1"), std::string::npos) << text;
  EXPECT_NE(text.find("warning: trace truncated"), std::string::npos)
      << text;
}

TEST(WriteFileErrorTest, UnwritablePathReturnsCleanStatus) {
  Status st = WriteFile("/nonexistent-dir-dynvote/out.json", "content");
  EXPECT_FALSE(st.ok());
  // The status must carry the offending path for the CLI error message.
  EXPECT_NE(st.ToString().find("/nonexistent-dir-dynvote/out.json"),
            std::string::npos)
      << st;
}

TEST(WriteFileErrorTest, DirectoryTargetReturnsCleanStatus) {
  EXPECT_FALSE(WriteFile("/tmp", "content").ok());
}

}  // namespace
}  // namespace dynvote
