// dynvote-btrace-v1 round trips: randomized events of every type decode
// back bit-identically, `trace-convert` and the JSONL page sink both
// render the canonical JSONL of the events byte for byte, concatenated
// per-replication bodies decode behind one header, and truncated or
// corrupt input yields clean errors.

#include "obs/binary_trace.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/async_writer.h"
#include "obs/trace_sink.h"
#include "util/rng.h"

namespace dynvote {
namespace {

// A randomized event of any of the six types. Cache-hit quorum events
// leave the paper sets at zero, matching what the instrumented code
// emits (and what both wire formats omit).
TraceEvent RandomEvent(Rng& rng, std::uint64_t seq) {
  static const char* const kOps[] = {"dispatch", "sample", "refresh"};
  static const char* const kProtocols[] = {"MCV", "DV", "LDV", "ODV"};
  TraceEvent e;
  e.t = rng.NextDouble() * 1e4;
  e.seq = seq;
  if (rng.NextBernoulli(0.5)) {
    e.replication = static_cast<int>(rng.NextBounded(1000));
  }
  switch (rng.NextBounded(6)) {
    case 0: {
      e.type = TraceEventType::kNet;
      e.repeater = rng.NextBernoulli(0.3);
      e.site = static_cast<int>(rng.NextBounded(8));
      e.up = rng.NextBernoulli(0.5);
      e.generation = rng.NextBounded(1 << 20);
      e.components.resize(rng.NextBounded(4));
      for (std::uint64_t& mask : e.components) mask = rng.Next() & 0xFF;
      break;
    }
    case 1:
      e.type = TraceEventType::kSim;
      e.op = kOps[rng.NextBounded(3)];
      break;
    case 2: {
      e.type = TraceEventType::kQuorum;
      e.protocol = kProtocols[rng.NextBounded(4)];
      e.write = rng.NextBernoulli(0.5);
      e.granted = rng.NextBernoulli(0.5);
      e.reason = static_cast<QuorumReason>(rng.NextBounded(kNumQuorumReasons));
      e.group = rng.Next() & 0xFF;
      if (e.reason != QuorumReason::kCacheHit) {
        e.set_r = rng.Next() & 0xFF;
        e.set_q = rng.Next() & 0xFF;
        e.set_s = rng.Next() & 0xFF;
        e.set_t = rng.Next() & 0xFF;
        e.set_pm = rng.Next() & 0xFF;
      }
      break;
    }
    case 3:
      e.type = TraceEventType::kAccess;
      e.protocol = kProtocols[rng.NextBounded(4)];
      e.write = rng.NextBernoulli(0.5);
      e.origin = static_cast<int>(rng.NextBounded(8));
      e.granted = rng.NextBernoulli(0.5);
      e.reason = static_cast<QuorumReason>(rng.NextBounded(kNumQuorumReasons));
      break;
    case 4:
      e.type = TraceEventType::kServing;
      e.protocol = kProtocols[rng.NextBounded(4)];
      e.write = rng.NextBernoulli(0.5);
      e.origin = static_cast<int>(rng.NextBounded(8));
      e.granted = rng.NextBernoulli(0.5);
      e.latency_ms = rng.NextDouble() * 50.0;
      e.msgs = static_cast<std::uint32_t>(rng.NextBounded(40));
      e.depth = static_cast<std::uint32_t>(rng.NextBounded(16));
      break;
    default:
      e.type = TraceEventType::kAvail;
      e.protocol = kProtocols[rng.NextBounded(4)];
      e.available = rng.NextBernoulli(0.5);
      break;
  }
  return e;
}

// Encodes `events` as one headered binary stream through the sink.
std::string Encode(const std::vector<TraceEvent>& events,
                   std::uint64_t seed, std::size_t page_bytes = 512) {
  std::ostringstream out;
  out << BinaryTraceHeader(seed);
  StreamPageSink pages(&out);
  BinaryTraceSink sink(&pages, page_bytes);
  for (const TraceEvent& e : events) sink.Write(e);
  sink.Flush();
  EXPECT_TRUE(sink.ok()) << sink.error();
  EXPECT_EQ(sink.events_written(), events.size());
  return out.str();
}

// The JSONL rendering is the canonical flattening of an event; comparing
// renderings compares every serialized field at once.
std::string Jsonl(const TraceEvent& e) {
  std::string line;
  AppendTraceEventJson(e, &line);
  return line;
}

TEST(BinaryTraceTest, RoundTripsRandomizedEventsOfEveryType) {
  Rng rng(20260807);
  std::vector<TraceEvent> events;
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    events.push_back(RandomEvent(rng, seq));
  }
  std::istringstream in(Encode(events, 42));
  BinaryTraceReader reader(&in);
  ASSERT_TRUE(reader.ReadHeader().ok());
  EXPECT_EQ(reader.seed(), 42u);
  EXPECT_EQ(reader.schema(), kBinaryTraceSchema);
  TraceEvent decoded;
  for (const TraceEvent& expected : events) {
    auto more = reader.Next(&decoded);
    ASSERT_TRUE(more.ok()) << more.status();
    ASSERT_TRUE(*more);
    EXPECT_EQ(Jsonl(decoded), Jsonl(expected));
    EXPECT_EQ(decoded.replication, expected.replication);
  }
  auto end = reader.Next(&decoded);
  ASSERT_TRUE(end.ok()) << end.status();
  EXPECT_FALSE(*end);
  EXPECT_EQ(reader.events_decoded(), events.size());
}

TEST(BinaryTraceTest, TimestampsSurviveBitExactly) {
  // Raw IEEE-754 storage must reproduce awkward doubles (%.17g output
  // depends on every bit).
  std::vector<TraceEvent> events;
  for (double t : {0.1, 1.0 / 3.0, 12345.678901234567, 1e-300, 0.0}) {
    TraceEvent e;
    e.type = TraceEventType::kSim;
    e.t = t;
    e.op = "dispatch";
    events.push_back(e);
  }
  std::istringstream in(Encode(events, 7));
  BinaryTraceReader reader(&in);
  ASSERT_TRUE(reader.ReadHeader().ok());
  TraceEvent decoded;
  for (const TraceEvent& expected : events) {
    ASSERT_TRUE(*reader.Next(&decoded));
    EXPECT_EQ(Jsonl(decoded), Jsonl(expected));
  }
}

TEST(BinaryTraceTest, ConversionMatchesDirectJsonlByteForByte) {
  Rng rng(99);
  std::vector<TraceEvent> events;
  for (std::uint64_t seq = 0; seq < 300; ++seq) {
    events.push_back(RandomEvent(rng, seq));
  }

  // The canonical JSONL of the events, rendered one by one.
  std::string direct = TraceHeaderLine(123) + "\n";
  for (const TraceEvent& e : events) direct += Jsonl(e) + "\n";

  // trace-convert of the btrace file.
  std::istringstream binary_in(Encode(events, 123));
  std::ostringstream converted;
  auto n = ConvertBinaryTraceToJsonl(binary_in, converted);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, events.size());
  EXPECT_EQ(converted.str(), direct);

  // A --trace-out=X.jsonl run: the same records rendered page by page,
  // with small pages so the string table and the same-instant state
  // cross many page boundaries.
  std::ostringstream rendered;
  rendered << TraceHeaderLine(123) << "\n";
  JsonlPageSink pages(&rendered);
  BinaryTraceSink sink(&pages, /*page_bytes=*/64);
  for (const TraceEvent& e : events) sink.Write(e);
  sink.Flush();
  ASSERT_TRUE(sink.ok()) << sink.error();
  EXPECT_EQ(sink.events_written(), events.size());
  EXPECT_EQ(rendered.str(), direct);
}

TEST(BinaryTraceTest, TypedFastPathsMatchTheGenericEncoding) {
  // The emission sites use the typed WriteSim/WriteQuorum/WriteAccess/
  // WriteAvail fast paths; routing the equivalent TraceEvents through
  // the generic Write() must produce the identical byte stream.
  const std::string tdv = "TDV";
  const std::string jm = "JM-DV";

  std::ostringstream typed_out;
  StreamPageSink typed_pages(&typed_out);
  BinaryTraceSink typed(&typed_pages, 64);
  QuorumSetMasks full;
  full.group = 0x1F;
  full.r = 0x0F;
  full.q = 0x02;
  full.s = 0x02;
  full.t = 0x03;
  full.pm = 0x03;
  QuorumSetMasks hit;
  hit.group = 0x07;
  TraceLabelCache dispatch_label;
  TraceLabelCache tdv_label;
  TraceLabelCache jm_label;
  typed.WriteSim(0.5, 1, -1, "dispatch",
                 dispatch_label.Resolve(&typed, "dispatch"));
  typed.WriteQuorum(1.25, 2, 3, tdv, tdv_label.Resolve(&typed, tdv), false,
                    true, QuorumReason::kGrantedTopologicalCarry, full);
  typed.WriteQuorum(1.5, 3, 3, jm, jm_label.Resolve(&typed, jm), true, true,
                    QuorumReason::kCacheHit, hit);
  typed.WriteAccess(2.0, 4, -1, tdv, tdv_label.Resolve(&typed, tdv), true,
                    false, QuorumReason::kDeniedMinority, 5);
  typed.WriteAvail(3.0, 5, 0, jm, jm_label.Resolve(&typed, jm), true);
  typed.WriteSim(4.0, 6, -1, "dispatch",
                 dispatch_label.Resolve(&typed, "dispatch"));  // id reused
  typed.Flush();
  ASSERT_TRUE(typed.ok()) << typed.error();

  std::ostringstream generic_out;
  StreamPageSink generic_pages(&generic_out);
  BinaryTraceSink generic(&generic_pages, 64);
  TraceEvent e;
  e.type = TraceEventType::kSim;
  e.t = 0.5;
  e.seq = 1;
  e.op = "dispatch";
  generic.Write(e);
  e = TraceEvent();
  e.type = TraceEventType::kQuorum;
  e.t = 1.25;
  e.seq = 2;
  e.replication = 3;
  e.protocol = tdv;
  e.granted = true;
  e.reason = QuorumReason::kGrantedTopologicalCarry;
  e.group = full.group;
  e.set_r = full.r;
  e.set_q = full.q;
  e.set_s = full.s;
  e.set_t = full.t;
  e.set_pm = full.pm;
  generic.Write(e);
  e = TraceEvent();
  e.type = TraceEventType::kQuorum;
  e.t = 1.5;
  e.seq = 3;
  e.replication = 3;
  e.protocol = jm;
  e.write = true;
  e.granted = true;
  e.reason = QuorumReason::kCacheHit;
  e.group = hit.group;
  generic.Write(e);
  e = TraceEvent();
  e.type = TraceEventType::kAccess;
  e.t = 2.0;
  e.seq = 4;
  e.protocol = tdv;
  e.write = true;
  e.reason = QuorumReason::kDeniedMinority;
  e.origin = 5;
  generic.Write(e);
  e = TraceEvent();
  e.type = TraceEventType::kAvail;
  e.t = 3.0;
  e.seq = 5;
  e.replication = 0;
  e.protocol = jm;
  e.available = true;
  generic.Write(e);
  e = TraceEvent();
  e.type = TraceEventType::kSim;
  e.t = 4.0;
  e.seq = 6;
  e.op = "dispatch";
  generic.Write(e);
  generic.Flush();
  ASSERT_TRUE(generic.ok()) << generic.error();

  EXPECT_EQ(typed_out.str(), generic_out.str());
}

TEST(BinaryTraceTest, LabelCacheFollowsTheSinkEpoch) {
  // One emission site alternating between two sinks must re-register on
  // every swap: label tokens are sink-scoped, and the process-unique
  // epochs are what detect the swap.
  const std::string proto = "PROTO";
  TraceLabelCache cache;
  std::ostringstream out1;
  std::ostringstream out2;
  StreamPageSink pages1(&out1);
  StreamPageSink pages2(&out2);
  BinaryTraceSink sink1(&pages1);
  BinaryTraceSink sink2(&pages2);
  sink1.WriteAvail(1.0, 1, -1, proto, cache.Resolve(&sink1, proto), true);
  sink2.WriteAvail(2.0, 2, -1, proto, cache.Resolve(&sink2, proto), false);
  sink1.WriteAvail(3.0, 3, -1, proto, cache.Resolve(&sink1, proto), true);
  sink1.Flush();
  sink2.Flush();
  ASSERT_TRUE(sink1.ok());
  ASSERT_TRUE(sink2.ok());

  for (std::ostringstream* out : {&out1, &out2}) {
    std::istringstream in(BinaryTraceHeader(0) + out->str());
    BinaryTraceReader reader(&in);
    ASSERT_TRUE(reader.ReadHeader().ok());
    TraceEvent decoded;
    std::uint64_t events = 0;
    for (;;) {
      auto more = reader.Next(&decoded);
      ASSERT_TRUE(more.ok()) << more.status();
      if (!*more) break;
      ++events;
      EXPECT_EQ(decoded.protocol, "PROTO");
    }
    EXPECT_GT(events, 0u);
  }
}

TEST(BinaryTraceTest, StaleLabelTokensNeverAliasAcrossSinkLifetimes) {
  // A caller holding a token from a destroyed sink must re-register with
  // whatever sink it meets next — even one allocated where the old sink
  // lived, and even when the caller now carries a different name (as a
  // reconstructed protocol between replications does). Epochs are never
  // reused, so the stale token cannot alias another sink's table.
  TraceLabelCache cache;
  std::ostringstream out1;
  auto pages1 = std::make_unique<StreamPageSink>(&out1);
  auto sink1 = std::make_unique<BinaryTraceSink>(pages1.get());
  const std::string first = "FIRST";
  sink1->WriteAvail(1.0, 1, -1, first, cache.Resolve(sink1.get(), first),
                    true);
  sink1->Flush();
  ASSERT_TRUE(sink1->ok());
  sink1.reset();  // best effort to let the next sink reuse the allocation

  std::ostringstream out2;
  StreamPageSink pages2(&out2);
  BinaryTraceSink sink2(&pages2);
  const std::string second = "SECOND";
  sink2.WriteAvail(2.0, 2, -1, second, cache.Resolve(&sink2, second), false);
  sink2.WriteAvail(3.0, 3, -1, second, cache.Resolve(&sink2, second), true);
  sink2.Flush();
  ASSERT_TRUE(sink2.ok());

  std::istringstream in(BinaryTraceHeader(0) + out2.str());
  BinaryTraceReader reader(&in);
  ASSERT_TRUE(reader.ReadHeader().ok());
  TraceEvent decoded;
  std::vector<std::string> protocols;
  for (;;) {
    auto more = reader.Next(&decoded);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    protocols.push_back(std::string(decoded.protocol));
  }
  ASSERT_EQ(protocols.size(), 2u);
  EXPECT_EQ(protocols[0], "SECOND");
  EXPECT_EQ(protocols[1], "SECOND");
}

TEST(BinaryTraceTest, ConcatenatedBodiesShareOneHeader) {
  // Two independently-encoded bodies (string tables restarting from id
  // 0, as per-replication workers produce) decode behind one header —
  // the redefinition-allowed rule in action.
  TraceEvent a;
  a.type = TraceEventType::kSim;
  a.op = "alpha";
  TraceEvent b;
  b.type = TraceEventType::kAvail;
  b.protocol = "beta";
  b.available = true;

  auto encode_body = [](const TraceEvent& e) {
    std::ostringstream out;
    StreamPageSink pages(&out);
    BinaryTraceSink sink(&pages);
    sink.Write(e);
    sink.Flush();
    return out.str();
  };
  std::istringstream in(BinaryTraceHeader(5) + encode_body(a) +
                        encode_body(b));
  BinaryTraceReader reader(&in);
  ASSERT_TRUE(reader.ReadHeader().ok());
  TraceEvent decoded;
  ASSERT_TRUE(*reader.Next(&decoded));
  EXPECT_STREQ(decoded.op, "alpha");
  ASSERT_TRUE(*reader.Next(&decoded));
  EXPECT_EQ(decoded.protocol, "beta");
  EXPECT_FALSE(*reader.Next(&decoded));
}

TEST(BinaryTraceTest, SmallPagesAndLargePagesEncodeIdentically) {
  Rng rng(7);
  std::vector<TraceEvent> events;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    events.push_back(RandomEvent(rng, seq));
  }
  // Page size only affects hand-off granularity, never the byte stream.
  EXPECT_EQ(Encode(events, 1, /*page_bytes=*/1),
            Encode(events, 1, /*page_bytes=*/1 << 20));
}

TEST(BinaryTraceTest, TruncatedFileIsACleanError) {
  TraceEvent e;
  e.type = TraceEventType::kQuorum;
  e.protocol = "DV";
  e.group = 3;
  std::string file = Encode({e, e, e}, 9);
  // Every proper prefix either decodes fewer events or reports a
  // truncation error — never a crash, never a bogus event.
  for (std::size_t len = 0; len < file.size(); ++len) {
    std::istringstream in(file.substr(0, len));
    BinaryTraceReader reader(&in);
    Status header = reader.ReadHeader();
    if (!header.ok()) continue;
    TraceEvent decoded;
    for (int i = 0; i < 4; ++i) {
      auto more = reader.Next(&decoded);
      if (!more.ok() || !*more) break;
      EXPECT_EQ(decoded.protocol, "DV");
    }
  }
}

TEST(BinaryTraceTest, GarbageAfterMagicIsACleanError) {
  std::string garbage(kBinaryTraceMagic, kBinaryTraceMagicSize);
  garbage += "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF";
  std::istringstream in(garbage);
  BinaryTraceReader reader(&in);
  EXPECT_FALSE(reader.ReadHeader().ok());
}

TEST(BinaryTraceTest, WrongMagicIsRejected) {
  std::istringstream jsonl("{\"schema\":\"dynvote-trace-v1\",\"seed\":1}\n");
  EXPECT_FALSE(LooksLikeBinaryTrace(jsonl));
  BinaryTraceReader reader(&jsonl);
  Status st = reader.ReadHeader();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(BinaryTraceTest, UnknownRecordKindIsRejected) {
  std::string file = BinaryTraceHeader(1);
  file.push_back(2);     // payload length
  file.push_back(42);    // unknown kind
  file.push_back(0);
  std::istringstream in(file);
  BinaryTraceReader reader(&in);
  ASSERT_TRUE(reader.ReadHeader().ok());
  TraceEvent decoded;
  auto more = reader.Next(&decoded);
  ASSERT_FALSE(more.ok());
  EXPECT_TRUE(more.status().IsInvalidArgument());
}

TEST(BinaryTraceTest, OutOfRangeReasonIsRejected) {
  TraceEvent e;
  e.type = TraceEventType::kAccess;
  e.protocol = "DV";
  std::string file = Encode({e}, 1);
  // The access record is the last one; its reason byte sits after the
  // string id. Corrupt every byte of the tail and require the decoder to
  // fail cleanly or keep producing the valid event — never crash.
  for (std::size_t i = kBinaryTraceMagicSize; i < file.size(); ++i) {
    std::string corrupt = file;
    corrupt[i] = static_cast<char>(0xEE);
    std::istringstream in(corrupt);
    BinaryTraceReader reader(&in);
    if (!reader.ReadHeader().ok()) continue;
    TraceEvent decoded;
    for (int hops = 0; hops < 4; ++hops) {
      auto more = reader.Next(&decoded);
      if (!more.ok() || !*more) break;
    }
  }
}

TEST(BinaryTraceTest, LooksLikeBinaryTraceDoesNotConsume) {
  std::istringstream in(BinaryTraceHeader(3));
  EXPECT_TRUE(LooksLikeBinaryTrace(in));
  BinaryTraceReader reader(&in);
  EXPECT_TRUE(reader.ReadHeader().ok());  // magic still fully present
  EXPECT_EQ(reader.seed(), 3u);
}

TEST(BinaryTraceTest, FailingPageSinkSurfacesInSinkState) {
  std::ostringstream out;
  out.setstate(std::ios::failbit);
  StreamPageSink pages(&out);
  BinaryTraceSink sink(&pages, /*page_bytes=*/16);
  TraceEvent e;
  e.type = TraceEventType::kSim;
  e.op = "dispatch";
  for (int i = 0; i < 100; ++i) sink.Write(e);
  sink.Flush();
  EXPECT_FALSE(sink.ok());
  EXPECT_EQ(sink.total_events(), 100u);
  EXPECT_EQ(sink.events_written(), 0u);
}

}  // namespace
}  // namespace dynvote
