// Compact binary trace encoding (schema dynvote-btrace-v1): the one
// record format inside the process. Every traced run records through
// BinaryTraceSink; a dynvote-trace-v1 JSONL file is a rendering of these
// records at the output (JsonlPageSink in async_writer.h, or
// `trace-convert` via ConvertBinaryTraceToJsonl), and both renderings
// share the BinaryRecordDecoder below. Events are length-prefixed
// records with LEB128 varint integers, zigzag-coded signed fields, raw
// IEEE-754 timestamps (so the JSONL rendering reproduces %.17g output
// bit for bit) and interned protocol/op strings. A file is
//
//   header  = magic(8) | varint len | schema bytes | varint seed
//   records = varint payload_len | payload ...
//
// where payload[0] is the record kind: 0 = string definition (varint id,
// varint len, bytes), 1..6 = net/sim/quorum/access/avail/serving events. String
// ids are assigned sequentially from 0 in first-use order; a definition
// for an existing id *replaces* it, which is what lets per-replication
// bodies (each interning from scratch) simply concatenate behind one
// header. See docs/observability.md for the field tables.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "obs/trace_sink.h"
#include "util/result.h"

namespace dynvote {

class TracePageSink;

/// Wire-format constants and raw-pointer serialization helpers of the
/// dynvote-btrace-v1 encoding. Internal detail shared by the inline
/// typed encoders below and the decoder in binary_trace.cc — the public
/// surface is BinaryTraceSink / BinaryRecordDecoder / BinaryTraceReader.
namespace btrace {

// Record kinds (payload[0]).
inline constexpr std::uint8_t kRecordStringDef = 0;
inline constexpr std::uint8_t kRecordNet = 1;
inline constexpr std::uint8_t kRecordSim = 2;
inline constexpr std::uint8_t kRecordQuorum = 3;
inline constexpr std::uint8_t kRecordAccess = 4;
inline constexpr std::uint8_t kRecordAvail = 5;
inline constexpr std::uint8_t kRecordServing = 6;

// Event flag bits (payload[1] of event records).
inline constexpr std::uint8_t kFlagRepeater = 1 << 0;
inline constexpr std::uint8_t kFlagUp = 1 << 1;
inline constexpr std::uint8_t kFlagWrite = 1 << 2;
inline constexpr std::uint8_t kFlagGranted = 1 << 3;
inline constexpr std::uint8_t kFlagAvailable = 1 << 4;
inline constexpr std::uint8_t kFlagHasReplication = 1 << 5;
// The record reuses (t, seq, replication) of the record before it; the
// head carries no timestamp, sequence or replication fields at all.
// Protocols are observed in bursts — every protocol emits at the same
// dispatch instant — so most records elide the 8-byte timestamp this way.
inline constexpr std::uint8_t kFlagSameInstant = 1 << 6;

/// Worst-case typed-event payload: a quorum record with every varint at
/// its 10-byte maximum — 1 (kind) + 1 (flags) + 8 (t) + 10 (seq) +
/// 5 (replication) + 5 (string id) + 1 (reason) + 6 x 10 (group + five
/// sets) = 91 bytes. Still below 128, so the record length prefix is
/// always a single byte.
inline constexpr std::size_t kMaxTypedPayload = 96;

/// Headroom the page buffer keeps past the fill line so a typed record
/// (1 length byte + kMaxTypedPayload) always fits without a bounds check
/// on the hot path.
inline constexpr std::size_t kCursorSlack = 1 + kMaxTypedPayload + 31;

// Serialization is plain stores through the page cursor, which always
// has kCursorSlack bytes of headroom.

inline char* PutVarint(std::uint64_t value, char* p) {
  if (value < 0x80) {  // the common case: one store, no loop
    *p++ = static_cast<char>(value);
    return p;
  }
  do {
    *p++ = static_cast<char>(0x80 | (value & 0x7F));
    value >>= 7;
  } while (value >= 0x80);
  *p++ = static_cast<char>(value);
  return p;
}

inline char* PutDoubleBits(double value, char* p) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &bits, sizeof(bits));  // single 8-byte store
    return p + 8;
  } else {
    for (int i = 0; i < 8; ++i) {
      *p++ = static_cast<char>(bits >> (8 * i));
    }
    return p;
  }
}

inline std::uint64_t ZigZag(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

}  // namespace btrace

/// Binary trace schema identifier, embedded in every file header; bump
/// when the record layout changes incompatibly.
inline constexpr const char kBinaryTraceSchema[] = "dynvote-btrace-v1";

/// File magic: a high-bit first byte so no JSONL (or other text) file
/// can collide, then an ASCII tag. Exactly 8 bytes on the wire.
inline constexpr char kBinaryTraceMagic[9] = "\xDBtrace1\n";
inline constexpr std::size_t kBinaryTraceMagicSize = 8;

/// The file header (magic + schema string + seed), the binary analogue
/// of TraceHeaderLine().
std::string BinaryTraceHeader(std::uint64_t seed);

/// True if the stream starts with the binary trace magic byte; consumes
/// nothing (single-character peek). Used by readers to auto-detect the
/// format.
bool LooksLikeBinaryTrace(std::istream& in);

/// TraceSink encoding events into fixed-size pages and handing each
/// completed page to `pages` (StreamPageSink or JsonlPageSink, directly
/// or behind the threaded AsyncTraceSink). Pages end on record
/// boundaries. Records serialize through a raw cursor into one flat
/// buffer — plain stores, no per-record string append — and
/// steady-state writes are allocation-free. Does NOT write the
/// file header — the owner of the output stream does, which is what
/// lets the replicated engine concatenate per-replication bodies
/// behind a single header.
class BinaryTraceSink final : public TraceSink {
 public:
  explicit BinaryTraceSink(TracePageSink* pages,
                           std::size_t page_bytes = 256 * 1024);

  void Write(const TraceEvent& event) override;

  /// Interns the label (emitting its definition record) and returns its
  /// string id for the typed writes below.
  std::uint32_t RegisterLabel(std::string_view label) override;

  /// Opts emission sites into the devirtualized path: with the class
  /// final and the typed writes inline, a direct call through a
  /// BinaryTraceSink* inlines the whole encoder into the emitter.
  FastPath fast_path() const override { return FastPath::kBinary; }

  // Non-virtual typed encoders: encode straight from the arguments into
  // the current page — no TraceEvent is materialized, the pre-registered
  // `label` replaces every per-event string argument (so devirtualized
  // emission sites skip even the virtual name() lookup), and each event
  // is a handful of stores through the page cursor. Byte-identical to
  // routing the equivalent TraceEvent through Write(). Defined inline
  // below the class; always_inline because emission sites pass
  // compile-time-constant `reason`/flag arguments, and inlining there
  // folds away whole encoding branches (e.g. the five mask varints on a
  // cache hit) that the size heuristic alone would keep behind a call.
  [[gnu::always_inline]] void EncodeSim(double t, std::uint64_t seq,
                                        int replication, std::uint32_t label);
  [[gnu::always_inline]] void EncodeQuorum(double t, std::uint64_t seq,
                                           int replication,
                                           std::uint32_t label, bool write,
                                           bool granted, QuorumReason reason,
                                           const QuorumSetMasks& sets);
  [[gnu::always_inline]] void EncodeAccess(double t, std::uint64_t seq,
                                           int replication,
                                           std::uint32_t label, bool write,
                                           bool granted, QuorumReason reason,
                                           int origin);
  [[gnu::always_inline]] void EncodeAvail(double t, std::uint64_t seq,
                                          int replication, std::uint32_t label,
                                          bool available);

  // Virtual typed writes: thin delegates to the encoders above. The
  // string arguments are unused — `label` was interned by RegisterLabel
  // and already names the protocol/op on the wire.
  void WriteSim(double t, std::uint64_t seq, int replication,
                const char* /*op*/, std::uint32_t label) override {
    EncodeSim(t, seq, replication, label);
  }
  void WriteQuorum(double t, std::uint64_t seq, int replication,
                   const std::string& /*protocol*/, std::uint32_t label,
                   bool write, bool granted, QuorumReason reason,
                   const QuorumSetMasks& sets) override {
    EncodeQuorum(t, seq, replication, label, write, granted, reason, sets);
  }
  void WriteAccess(double t, std::uint64_t seq, int replication,
                   const std::string& /*protocol*/, std::uint32_t label,
                   bool write, bool granted, QuorumReason reason,
                   int origin) override {
    EncodeAccess(t, seq, replication, label, write, granted, reason, origin);
  }
  void WriteAvail(double t, std::uint64_t seq, int replication,
                  const std::string& /*protocol*/, std::uint32_t label,
                  bool available) override {
    EncodeAvail(t, seq, replication, label, available);
  }

  /// Hands off the partial page and flushes the page pipeline; deferred
  /// writer errors surface here (error state, or a rethrown async
  /// writer exception).
  void Flush() override;

  /// The page pipeline's count: events whose page the terminal page sink
  /// wrote. Complete once Flush() returns.
  std::uint64_t events_written() const override;

 private:
  std::uint32_t InternString(std::string_view value);

  /// Closes one typed event record serialized at `rec` (rec[0] is the
  /// length byte the emitters reserved; typed payloads are bounded far
  /// below 128 bytes so the prefix is always that single byte), advances
  /// the cursor and hands off the page when full. The cursor invariant —
  /// at least kCursorSlack bytes of headroom on entry to every typed
  /// write — holds because this emits as soon as the fill line is
  /// crossed.
  void FinishTypedRecord(char* rec, char* end) {
    rec[0] = static_cast<char>(end - rec - 1);
    cursor_ = end;
    ++events_in_page_;
    if (cursor_ >= fill_line_) EmitPage();
  }

  /// Appends a length-prefixed record of `payload` (generic path: string
  /// definitions and net events), growing the buffer in the cold case of
  /// a record larger than a whole page. `is_event` counts the record
  /// toward the page's event total (string definitions are not events).
  void AppendFramed(std::string_view payload, bool is_event);

  /// Writes one event record's prologue — kind, flags, then timestamp,
  /// sequence and replication, or just a same-instant flag when all
  /// three match the previous record's (protocols emit in bursts at one
  /// dispatch instant, so most records elide the whole head). Shared by
  /// the typed fast paths and the generic Write() so both produce
  /// byte-identical streams.
  char* PutEventHead(std::uint8_t kind, std::uint8_t flags, double t,
                     std::uint64_t seq, int replication, char* p) {
    *p++ = static_cast<char>(kind);
    std::uint64_t t_bits;
    std::memcpy(&t_bits, &t, sizeof(t_bits));
    if (t_bits == last_t_bits_ && seq == last_seq_ &&
        replication == last_repl_) {
      *p++ = static_cast<char>(flags | btrace::kFlagSameInstant);
      return p;
    }
    last_t_bits_ = t_bits;
    last_seq_ = seq;
    last_repl_ = replication;
    if (replication >= 0) flags |= btrace::kFlagHasReplication;
    *p++ = static_cast<char>(flags);
    p = btrace::PutDoubleBits(t, p);
    p = btrace::PutVarint(seq, p);
    if (replication >= 0) {
      p = btrace::PutVarint(static_cast<std::uint64_t>(replication), p);
    }
    return p;
  }

  void EmitPage();

  /// Points the cursor at page_'s storage (after construction, handoff
  /// or growth). page_ must already be sized to capacity_.
  void ResetCursor() {
    cursor_ = page_.data();
    fill_line_ = page_.data() + page_bytes_;
  }

  std::size_t BufferUsed() const {
    return static_cast<std::size_t>(cursor_ - page_.data());
  }

  TracePageSink* pages_;
  const std::size_t page_bytes_;
  // The page accumulator: records serialize through cursor_ straight
  // into page_'s storage (held at size capacity_ while encoding), and
  // EmitPage shrinks it to the used length and hands the same string to
  // pages_ — no copy between an encode buffer and a handoff buffer.
  std::string page_;
  char* cursor_ = nullptr;
  char* fill_line_ = nullptr;  // page_.data() + page_bytes_: emit at/after
  std::size_t capacity_ = 0;   // page_bytes_ + kCursorSlack (or grown)
  std::string scratch_;  // one event's payload, reused between events
  std::map<std::string, std::uint32_t, std::less<>> interned_;
  std::uint64_t events_in_page_ = 0;
  // Instant of the previous event record, for same-instant head elision.
  // last_repl_ = -2 can match no event, so the first head is never elided.
  std::uint64_t last_t_bits_ = 0;
  std::uint64_t last_seq_ = 0;
  int last_repl_ = -2;
};

// Inline typed encoders: on the hot path a devirtualized caller reduces
// each event to the stores below plus the page-full check.

inline void BinaryTraceSink::EncodeSim(double t, std::uint64_t seq,
                                       int replication, std::uint32_t label) {
  CountEvent();
  if (!ok()) return;
  char* rec = cursor_;
  char* p = PutEventHead(btrace::kRecordSim, 0, t, seq, replication, rec + 1);
  p = btrace::PutVarint(label, p);
  FinishTypedRecord(rec, p);
}

inline void BinaryTraceSink::EncodeQuorum(double t, std::uint64_t seq,
                                          int replication, std::uint32_t label,
                                          bool write, bool granted,
                                          QuorumReason reason,
                                          const QuorumSetMasks& sets) {
  CountEvent();
  if (!ok()) return;
  char* rec = cursor_;
  std::uint8_t flags = (write ? btrace::kFlagWrite : 0) |
                       (granted ? btrace::kFlagGranted : 0);
  char* p =
      PutEventHead(btrace::kRecordQuorum, flags, t, seq, replication, rec + 1);
  p = btrace::PutVarint(label, p);
  *p++ = static_cast<char>(reason);
  p = btrace::PutVarint(sets.group, p);
  if (reason != QuorumReason::kCacheHit) {
    p = btrace::PutVarint(sets.r, p);
    p = btrace::PutVarint(sets.q, p);
    p = btrace::PutVarint(sets.s, p);
    p = btrace::PutVarint(sets.t, p);
    p = btrace::PutVarint(sets.pm, p);
  }
  FinishTypedRecord(rec, p);
}

inline void BinaryTraceSink::EncodeAccess(double t, std::uint64_t seq,
                                          int replication, std::uint32_t label,
                                          bool write, bool granted,
                                          QuorumReason reason, int origin) {
  CountEvent();
  if (!ok()) return;
  char* rec = cursor_;
  std::uint8_t flags = (write ? btrace::kFlagWrite : 0) |
                       (granted ? btrace::kFlagGranted : 0);
  char* p =
      PutEventHead(btrace::kRecordAccess, flags, t, seq, replication, rec + 1);
  p = btrace::PutVarint(label, p);
  *p++ = static_cast<char>(reason);
  p = btrace::PutVarint(btrace::ZigZag(origin), p);
  FinishTypedRecord(rec, p);
}

inline void BinaryTraceSink::EncodeAvail(double t, std::uint64_t seq,
                                         int replication, std::uint32_t label,
                                         bool available) {
  CountEvent();
  if (!ok()) return;
  char* rec = cursor_;
  std::uint8_t flags = available ? btrace::kFlagAvailable : 0;
  char* p =
      PutEventHead(btrace::kRecordAvail, flags, t, seq, replication, rec + 1);
  p = btrace::PutVarint(label, p);
  FinishTypedRecord(rec, p);
}

/// Decoder state of a dynvote-btrace-v1 record stream: the string table
/// and the previous record's instant, both of which carry from one record
/// to the next — across page and per-replication body boundaries too.
/// Framing is the caller's: BinaryTraceReader reads records off an
/// istream, JsonlPageSink walks the whole records of each page. Decoded
/// events reference the string table (`op` stays valid until its id is
/// redefined). Corrupt input yields an error Status, not a crash.
class BinaryRecordDecoder {
 public:
  /// Decodes one record payload (length prefix already stripped). A
  /// string definition updates the table and returns false; an event
  /// record fills *event and returns true.
  Result<bool> DecodeRecord(std::string_view payload, TraceEvent* event);

  /// Decodes the next event of `*records`, a run of whole length-prefixed
  /// records such as one page, and advances `*records` past every record
  /// consumed. Returns false once `*records` is exhausted.
  Result<bool> NextEvent(std::string_view* records, TraceEvent* event);

 private:
  std::deque<std::string> strings_;  // id -> value; deque: stable refs
  // Instant of the previous event record (same-instant head elision).
  double last_t_ = 0.0;
  std::uint64_t last_seq_ = 0;
  int last_repl_ = -1;
  bool have_instant_ = false;
};

/// Streaming decoder for a binary trace file: reads the header and frames
/// records off an istream for a BinaryRecordDecoder. Decoded events
/// reference the decoder's string table. Truncated or corrupt input
/// yields an error Status, not a crash.
class BinaryTraceReader {
 public:
  explicit BinaryTraceReader(std::istream* in) : in_(in) {}

  /// Reads and validates magic, schema and seed. Must be called first.
  Status ReadHeader();

  std::uint64_t seed() const { return seed_; }
  const std::string& schema() const { return schema_; }
  std::uint64_t events_decoded() const { return events_decoded_; }

  /// Decodes the next event into *event (string-definition records are
  /// consumed transparently). Returns true on an event, false on clean
  /// end of file, an error Status on truncation or corruption.
  Result<bool> Next(TraceEvent* event);

 private:
  std::istream* in_;
  std::string schema_;
  std::uint64_t seed_ = 0;
  std::uint64_t events_decoded_ = 0;
  std::string payload_;  // record buffer, reused
  BinaryRecordDecoder decoder_;
};

/// Streams a binary trace file out as dynvote-trace-v1 JSONL (header
/// line plus one line per event) — byte-identical to what a run writing
/// `--trace-out=X.jsonl` with the same seed produces. Returns the number
/// of event lines written, or an error on corrupt input / failed output.
Result<std::uint64_t> ConvertBinaryTraceToJsonl(std::istream& in,
                                                std::ostream& out);

}  // namespace dynvote
