#include "obs/binary_trace.h"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <utility>

#include "obs/async_writer.h"

namespace dynvote {
namespace {

// Records larger than this are rejected as corrupt rather than
// allocated: the biggest legitimate payload (a net event on a 64-site
// network, or a string definition) is a few hundred bytes.
constexpr std::uint64_t kMaxPayloadBytes = 1 << 20;

void AppendVarint(std::uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>(0x80 | (value & 0x7F)));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

std::int64_t UnZigZag(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

/// Cursor over one record payload; every read is bounds-checked so a
/// truncated or corrupt record decodes to a clean error.
struct PayloadCursor {
  std::string_view data;
  std::size_t pos = 0;

  bool ReadByte(std::uint8_t* out) {
    if (pos >= data.size()) return false;
    *out = static_cast<std::uint8_t>(data[pos++]);
    return true;
  }

  bool ReadVarint(std::uint64_t* out) {
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      std::uint8_t byte;
      if (!ReadByte(&byte)) return false;
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *out = value;
        return true;
      }
    }
    return false;  // more than 10 continuation bytes: corrupt
  }

  bool ReadSigned(std::int64_t* out) {
    std::uint64_t raw;
    if (!ReadVarint(&raw)) return false;
    *out = UnZigZag(raw);
    return true;
  }

  bool ReadDoubleBits(double* out) {
    if (pos + 8 > data.size()) return false;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(data[pos + i]))
              << (8 * i);
    }
    pos += 8;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }

  bool AtEnd() const { return pos == data.size(); }
};

Status Corrupt(const char* what) {
  return Status::InvalidArgument(std::string("corrupt binary trace: ") +
                                 what);
}

}  // namespace

std::string BinaryTraceHeader(std::uint64_t seed) {
  std::string header(kBinaryTraceMagic, kBinaryTraceMagicSize);
  AppendVarint(std::strlen(kBinaryTraceSchema), &header);
  header.append(kBinaryTraceSchema);
  AppendVarint(seed, &header);
  return header;
}

bool LooksLikeBinaryTrace(std::istream& in) {
  return in.peek() ==
         static_cast<int>(static_cast<unsigned char>(kBinaryTraceMagic[0]));
}

// ---------------------------------------------------------------------
// Encoder

BinaryTraceSink::BinaryTraceSink(TracePageSink* pages,
                                 std::size_t page_bytes)
    : pages_(pages), page_bytes_(page_bytes == 0 ? 1 : page_bytes) {
  capacity_ = page_bytes_ + btrace::kCursorSlack;
  page_.resize(capacity_);
  ResetCursor();
}

void BinaryTraceSink::AppendFramed(std::string_view payload, bool is_event) {
  // Worst-case framing: a 10-byte length varint plus the payload.
  std::size_t need = payload.size() + 10;
  if (capacity_ - BufferUsed() < need) {
    EmitPage();
    if (capacity_ < need) {
      // A record larger than a whole page (cold: an oversized string
      // definition). Grow the empty buffer to fit it.
      capacity_ = need + btrace::kCursorSlack;
      page_.resize(capacity_);
      ResetCursor();
    }
  }
  char* p = btrace::PutVarint(payload.size(), cursor_);
  std::memcpy(p, payload.data(), payload.size());
  cursor_ = p + payload.size();
  if (is_event) ++events_in_page_;
  if (cursor_ >= fill_line_) EmitPage();
}

std::uint32_t BinaryTraceSink::InternString(std::string_view value) {
  auto it = interned_.find(value);
  if (it != interned_.end()) return it->second;
  auto id = static_cast<std::uint32_t>(interned_.size());
  interned_.emplace(std::string(value), id);
  // Definition record precedes the first event that references the id.
  scratch_.clear();
  scratch_.push_back(static_cast<char>(btrace::kRecordStringDef));
  AppendVarint(id, &scratch_);
  AppendVarint(value.size(), &scratch_);
  scratch_.append(value);
  AppendFramed(scratch_, /*is_event=*/false);
  return id;
}

std::uint32_t BinaryTraceSink::RegisterLabel(std::string_view label) {
  return InternString(label);
}

void BinaryTraceSink::Write(const TraceEvent& event) {
  CountEvent();
  if (!ok()) return;  // the page pipeline already failed; keep counting

  // Interning may emit definition records into the page first.
  std::uint32_t string_id = 0;
  switch (event.type) {
    case TraceEventType::kSim:
      string_id = InternString(event.op);
      break;
    case TraceEventType::kQuorum:
    case TraceEventType::kAccess:
    case TraceEventType::kAvail:
    case TraceEventType::kServing:
      string_id = InternString(event.protocol);
      break;
    case TraceEventType::kNet:
      break;
  }

  scratch_.clear();
  std::uint8_t flags = 0;
  if (event.repeater) flags |= btrace::kFlagRepeater;
  if (event.up) flags |= btrace::kFlagUp;
  if (event.write) flags |= btrace::kFlagWrite;
  if (event.granted) flags |= btrace::kFlagGranted;
  if (event.available) flags |= btrace::kFlagAvailable;
  std::uint8_t kind = 0;
  switch (event.type) {
    case TraceEventType::kNet:
      kind = btrace::kRecordNet;
      break;
    case TraceEventType::kSim:
      kind = btrace::kRecordSim;
      break;
    case TraceEventType::kQuorum:
      kind = btrace::kRecordQuorum;
      break;
    case TraceEventType::kAccess:
      kind = btrace::kRecordAccess;
      break;
    case TraceEventType::kAvail:
      kind = btrace::kRecordAvail;
      break;
    case TraceEventType::kServing:
      kind = btrace::kRecordServing;
      break;
  }
  // Same head logic (and same-instant state) as the typed fast paths, so
  // the two encodings stay byte-identical.
  char head[2 + 8 + 10 + 5];
  char* head_end =
      PutEventHead(kind, flags, event.t, event.seq, event.replication, head);
  scratch_.append(head, static_cast<std::size_t>(head_end - head));
  switch (event.type) {
    case TraceEventType::kNet:
      AppendVarint(btrace::ZigZag(event.site), &scratch_);
      AppendVarint(event.generation, &scratch_);
      AppendVarint(event.components.size(), &scratch_);
      for (std::uint64_t mask : event.components) {
        AppendVarint(mask, &scratch_);
      }
      break;
    case TraceEventType::kSim:
      AppendVarint(string_id, &scratch_);
      break;
    case TraceEventType::kQuorum:
      AppendVarint(string_id, &scratch_);
      scratch_.push_back(static_cast<char>(event.reason));
      AppendVarint(event.group, &scratch_);
      // Cache hits omit the paper sets, exactly as the JSONL form does.
      if (event.reason != QuorumReason::kCacheHit) {
        AppendVarint(event.set_r, &scratch_);
        AppendVarint(event.set_q, &scratch_);
        AppendVarint(event.set_s, &scratch_);
        AppendVarint(event.set_t, &scratch_);
        AppendVarint(event.set_pm, &scratch_);
      }
      break;
    case TraceEventType::kAccess:
      AppendVarint(string_id, &scratch_);
      scratch_.push_back(static_cast<char>(event.reason));
      AppendVarint(btrace::ZigZag(event.origin), &scratch_);
      break;
    case TraceEventType::kAvail:
      AppendVarint(string_id, &scratch_);
      break;
    case TraceEventType::kServing: {
      AppendVarint(string_id, &scratch_);
      AppendVarint(btrace::ZigZag(event.origin), &scratch_);
      // Raw IEEE-754 bits, like the timestamp, so conversion to JSONL
      // reproduces the direct 17-digit rendering exactly.
      char bits[8];
      btrace::PutDoubleBits(event.latency_ms, bits);
      scratch_.append(bits, sizeof(bits));
      AppendVarint(event.msgs, &scratch_);
      AppendVarint(event.depth, &scratch_);
      break;
    }
  }
  AppendFramed(scratch_, /*is_event=*/true);
}

void BinaryTraceSink::EmitPage() {
  std::size_t used = BufferUsed();
  if (used == 0 && events_in_page_ == 0) return;
  // The accumulator itself is the handoff buffer: shrink to the encoded
  // length (no bytes move) and let the page sink consume or swap it.
  page_.resize(used);
  // The page carries its event count down the pipeline: the events are
  // credited only once the terminal page sink has written them.
  pages_->WriteEventPage(&page_, events_in_page_);
  if (!pages_->ok()) SetError(pages_->error());
  events_in_page_ = 0;
  // WritePage left an empty (possibly recycled) buffer; size it back up
  // for the cursor. With a warm recycle pool this reuses capacity.
  if (page_.capacity() < capacity_) {
    page_ = std::string();  // don't copy bytes the resize will overwrite
    page_.reserve(capacity_);
  }
  page_.resize(capacity_);
  ResetCursor();
}

std::uint64_t BinaryTraceSink::events_written() const {
  return pages_->events_written();
}

void BinaryTraceSink::Flush() {
  if (!ok()) return;
  EmitPage();
  pages_->Flush();  // may rethrow an async writer exception
  if (!pages_->ok()) SetError(pages_->error());
}

// ---------------------------------------------------------------------
// Decoder

Status BinaryTraceReader::ReadHeader() {
  char magic[kBinaryTraceMagicSize];
  in_->read(magic, kBinaryTraceMagicSize);
  if (in_->gcount() != static_cast<std::streamsize>(kBinaryTraceMagicSize) ||
      std::memcmp(magic, kBinaryTraceMagic, kBinaryTraceMagicSize) != 0) {
    return Status::InvalidArgument("not a binary trace (bad magic)");
  }
  // Schema string and seed use the same framing as record payloads.
  auto read_varint = [this](std::uint64_t* out) {
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      int c = in_->get();
      if (c == std::char_traits<char>::eof()) return false;
      value |= static_cast<std::uint64_t>(c & 0x7F) << shift;
      if ((c & 0x80) == 0) {
        *out = value;
        return true;
      }
    }
    return false;
  };
  std::uint64_t schema_len = 0;
  if (!read_varint(&schema_len) || schema_len > 256) {
    return Corrupt("header schema length");
  }
  schema_.resize(schema_len);
  in_->read(schema_.data(), static_cast<std::streamsize>(schema_len));
  if (in_->gcount() != static_cast<std::streamsize>(schema_len)) {
    return Corrupt("truncated header schema");
  }
  if (schema_ != kBinaryTraceSchema) {
    return Status::InvalidArgument("unsupported binary trace schema '" +
                                   schema_ + "' (expected " +
                                   kBinaryTraceSchema + ")");
  }
  if (!read_varint(&seed_)) return Corrupt("truncated header seed");
  return Status::OK();
}

Result<bool> BinaryTraceReader::Next(TraceEvent* event) {
  for (;;) {
    // Record length: clean EOF is only legal before its first byte.
    std::uint64_t payload_len = 0;
    {
      std::uint64_t value = 0;
      bool started = false;
      bool done = false;
      for (int shift = 0; shift < 64 && !done; shift += 7) {
        int c = in_->get();
        if (c == std::char_traits<char>::eof()) {
          if (!started) return false;  // end of trace at a record boundary
          return Corrupt("truncated record length");
        }
        started = true;
        value |= static_cast<std::uint64_t>(c & 0x7F) << shift;
        done = (c & 0x80) == 0;
      }
      if (!done) return Corrupt("record length overflow");
      payload_len = value;
    }
    if (payload_len == 0 || payload_len > kMaxPayloadBytes) {
      return Corrupt("implausible record length");
    }
    payload_.resize(payload_len);
    in_->read(payload_.data(), static_cast<std::streamsize>(payload_len));
    if (in_->gcount() != static_cast<std::streamsize>(payload_len)) {
      return Corrupt("truncated record payload");
    }
    auto is_event = decoder_.DecodeRecord(payload_, event);
    if (!is_event.ok()) return is_event;
    if (*is_event) {
      ++events_decoded_;
      return true;
    }
    // String definition: keep scanning for the next event record.
  }
}

Result<bool> BinaryRecordDecoder::NextEvent(std::string_view* records,
                                            TraceEvent* event) {
  while (!records->empty()) {
    PayloadCursor cur{*records};
    std::uint64_t payload_len = 0;
    if (!cur.ReadVarint(&payload_len)) {
      return Corrupt("truncated record length");
    }
    if (payload_len == 0 || payload_len > cur.data.size() - cur.pos) {
      return Corrupt("implausible record length");
    }
    std::string_view payload = records->substr(cur.pos, payload_len);
    records->remove_prefix(cur.pos + payload_len);
    auto is_event = DecodeRecord(payload, event);
    if (!is_event.ok() || *is_event) return is_event;
  }
  return false;
}

Result<bool> BinaryRecordDecoder::DecodeRecord(std::string_view payload,
                                               TraceEvent* event) {
  PayloadCursor cur{payload};
  std::uint8_t kind = 0;
  if (!cur.ReadByte(&kind)) return Corrupt("empty record");

  if (kind == btrace::kRecordStringDef) {
    std::uint64_t id = 0;
    std::uint64_t len = 0;
    if (!cur.ReadVarint(&id) || !cur.ReadVarint(&len) ||
        cur.pos + len != payload.size()) {
      return Corrupt("string definition");
    }
    // Sequential first-use ids; an existing id is a redefinition (a new
    // per-replication body starting its table over).
    if (id > strings_.size()) return Corrupt("string id out of order");
    std::string value(payload.substr(cur.pos, len));
    if (id == strings_.size()) {
      strings_.push_back(std::move(value));
    } else {
      strings_[id] = std::move(value);
    }
    return false;
  }

  *event = TraceEvent();  // unserialized fields keep their defaults
  std::uint8_t flags = 0;
  if (!cur.ReadByte(&flags)) return Corrupt("event prefix");
  event->repeater = (flags & btrace::kFlagRepeater) != 0;
  event->up = (flags & btrace::kFlagUp) != 0;
  event->write = (flags & btrace::kFlagWrite) != 0;
  event->granted = (flags & btrace::kFlagGranted) != 0;
  event->available = (flags & btrace::kFlagAvailable) != 0;
  if ((flags & btrace::kFlagSameInstant) != 0) {
    // Head elided: this record shares the previous record's instant.
    if (!have_instant_) {
      return Corrupt("same-instant record with no predecessor");
    }
    event->t = last_t_;
    event->seq = last_seq_;
    event->replication = last_repl_;
  } else {
    if (!cur.ReadDoubleBits(&event->t) || !cur.ReadVarint(&event->seq)) {
      return Corrupt("event prefix");
    }
    if ((flags & btrace::kFlagHasReplication) != 0) {
      std::uint64_t rep = 0;
      if (!cur.ReadVarint(&rep) || rep > 0x7FFFFFFF) {
        return Corrupt("replication index");
      }
      event->replication = static_cast<int>(rep);
    }
    last_t_ = event->t;
    last_seq_ = event->seq;
    last_repl_ = event->replication;
    have_instant_ = true;
  }

  auto read_string = [&](std::string* out_protocol,
                         const char** out_op) -> bool {
    std::uint64_t id = 0;
    if (!cur.ReadVarint(&id) || id >= strings_.size()) return false;
    if (out_protocol != nullptr) *out_protocol = strings_[id];
    if (out_op != nullptr) *out_op = strings_[id].c_str();
    return true;
  };
  auto read_reason = [&](QuorumReason* out) -> bool {
    std::uint8_t raw = 0;
    if (!cur.ReadByte(&raw) || raw >= kNumQuorumReasons) return false;
    *out = static_cast<QuorumReason>(raw);
    return true;
  };

  switch (kind) {
    case btrace::kRecordNet: {
      event->type = TraceEventType::kNet;
      std::int64_t site = 0;
      std::uint64_t count = 0;
      if (!cur.ReadSigned(&site) || !cur.ReadVarint(&event->generation) ||
          !cur.ReadVarint(&count) || count > 64) {
        return Corrupt("net event");
      }
      event->site = static_cast<int>(site);
      event->components.resize(count);
      for (std::uint64_t& mask : event->components) {
        if (!cur.ReadVarint(&mask)) return Corrupt("net components");
      }
      break;
    }
    case btrace::kRecordSim: {
      event->type = TraceEventType::kSim;
      if (!read_string(nullptr, &event->op)) return Corrupt("sim op");
      break;
    }
    case btrace::kRecordQuorum: {
      event->type = TraceEventType::kQuorum;
      if (!read_string(&event->protocol, nullptr) ||
          !read_reason(&event->reason) || !cur.ReadVarint(&event->group)) {
        return Corrupt("quorum event");
      }
      if (event->reason != QuorumReason::kCacheHit &&
          (!cur.ReadVarint(&event->set_r) ||
           !cur.ReadVarint(&event->set_q) ||
           !cur.ReadVarint(&event->set_s) ||
           !cur.ReadVarint(&event->set_t) ||
           !cur.ReadVarint(&event->set_pm))) {
        return Corrupt("quorum sets");
      }
      break;
    }
    case btrace::kRecordAccess: {
      event->type = TraceEventType::kAccess;
      std::int64_t origin = 0;
      if (!read_string(&event->protocol, nullptr) ||
          !read_reason(&event->reason) || !cur.ReadSigned(&origin)) {
        return Corrupt("access event");
      }
      event->origin = static_cast<int>(origin);
      break;
    }
    case btrace::kRecordAvail: {
      event->type = TraceEventType::kAvail;
      if (!read_string(&event->protocol, nullptr)) {
        return Corrupt("avail event");
      }
      break;
    }
    case btrace::kRecordServing: {
      event->type = TraceEventType::kServing;
      std::int64_t origin = 0;
      std::uint64_t msgs = 0;
      std::uint64_t depth = 0;
      if (!read_string(&event->protocol, nullptr) ||
          !cur.ReadSigned(&origin) ||
          !cur.ReadDoubleBits(&event->latency_ms) ||
          !cur.ReadVarint(&msgs) || msgs > 0xFFFFFFFF ||
          !cur.ReadVarint(&depth) || depth > 0xFFFFFFFF) {
        return Corrupt("serving event");
      }
      event->origin = static_cast<int>(origin);
      event->msgs = static_cast<std::uint32_t>(msgs);
      event->depth = static_cast<std::uint32_t>(depth);
      break;
    }
    default:
      return Corrupt("unknown record kind");
  }
  if (!cur.AtEnd()) return Corrupt("trailing bytes in record");
  return true;
}

// ---------------------------------------------------------------------
// Conversion

Result<std::uint64_t> ConvertBinaryTraceToJsonl(std::istream& in,
                                                std::ostream& out) {
  BinaryTraceReader reader(&in);
  Status st = reader.ReadHeader();
  if (!st.ok()) return st;
  std::string line = TraceHeaderLine(reader.seed());
  line.push_back('\n');
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
  TraceEvent event;
  for (;;) {
    auto more = reader.Next(&event);
    if (!more.ok()) return more.status();
    if (!*more) break;
    line.clear();
    AppendTraceEventJson(event, &line);
    line.push_back('\n');
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    if (!out.good()) {
      return Status::Internal("JSONL output stream write failed");
    }
  }
  return reader.events_decoded();
}

}  // namespace dynvote
