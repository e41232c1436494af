// Where trace events go. The one implementation in the tree is
// BinaryTraceSink (binary_trace.h), which records dynvote-btrace-v1 pages;
// JSONL (dynvote-trace-v1) is rendered from those records at the output
// with AppendTraceEventJson below. Emission sites hold a TraceSink*
// behind ObsContext and test it for null — that single branch is the
// entire disabled-tracing cost.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/trace_event.h"

namespace dynvote {

class TraceSink {
 public:
  TraceSink();  // claims a fresh label epoch
  virtual ~TraceSink() = default;

  /// Records one event. Called synchronously from the simulation thread
  /// that owns the sink; sinks are single-writer and need no locking.
  virtual void Write(const TraceEvent& event) = 0;

  // --- Typed fast paths ------------------------------------------------
  // One emitter per high-rate event kind. Each call must be equivalent
  // to filling a TraceEvent with the same fields and passing it to
  // Write(); BinaryTraceSink encodes straight from the arguments,
  // skipping the event object on the hot path.
  // `protocol` must reference storage that outlives the call (emission
  // sites pass the protocol object's own name string); `op` must be a
  // static label, as on TraceEvent::op. `label` is the RegisterLabel()
  // token for that same string — emission sites keep it in a
  // TraceLabelCache so a serializing sink never re-interns per event.

  virtual void WriteSim(double t, std::uint64_t seq, int replication,
                        const char* op, std::uint32_t label) = 0;
  virtual void WriteQuorum(double t, std::uint64_t seq, int replication,
                           const std::string& protocol, std::uint32_t label,
                           bool write, bool granted, QuorumReason reason,
                           const QuorumSetMasks& sets) = 0;
  virtual void WriteAccess(double t, std::uint64_t seq, int replication,
                           const std::string& protocol, std::uint32_t label,
                           bool write, bool granted, QuorumReason reason,
                           int origin) = 0;
  virtual void WriteAvail(double t, std::uint64_t seq, int replication,
                          const std::string& protocol, std::uint32_t label,
                          bool available) = 0;

  /// Declares a recurring string (a protocol name, a sim op) ahead of the
  /// typed writes that reference it, returning the token to pass as their
  /// `label`. A serializing sink interns the string once here; sinks that
  /// carry the string by value ignore labels entirely and return 0.
  /// Tokens are only meaningful on the sink that issued them — callers
  /// detect a different (or reconstructed) sink via label_epoch() and
  /// re-register, which TraceLabelCache packages up.
  virtual std::uint32_t RegisterLabel(std::string_view label);

  /// Identity of this sink's label space: process-unique, never reused
  /// across sink lifetimes. A cached label is valid iff the epoch it was
  /// issued under still matches.
  std::uint64_t label_epoch() const { return label_epoch_; }

  /// Which devirtualized fast path this sink supports. Only the (final)
  /// BinaryTraceSink returns kBinary; emission sites cache the answer
  /// next to their label epoch and static_cast to call its inline typed
  /// writes directly, skipping the virtual dispatch on every event of
  /// the per-access hot path. No other class may return kBinary.
  enum class FastPath : unsigned char { kGeneric, kBinary };
  virtual FastPath fast_path() const { return FastPath::kGeneric; }

  /// Completes any buffered or asynchronous work so every durably
  /// written event is visible at the destination. May surface deferred
  /// writer errors (error state, or a rethrown writer-thread exception
  /// for the async pipeline). Default: nothing buffered, nothing to do.
  virtual void Flush() {}

  /// Total events offered to the sink over its lifetime.
  std::uint64_t total_events() const { return total_events_; }

  /// Events the sink actually delivered to its destination. On a healthy
  /// sink this equals total_events() once Flush() returns; a smaller
  /// value together with a non-empty error() means the trace tail was
  /// silently lost (failed stream, full disk) and the file on disk is
  /// shorter than the run's event count.
  virtual std::uint64_t events_written() const { return events_written_; }

  /// False once a write failed; the sink stops writing (but keeps
  /// counting offered events) so a full disk cannot busy-loop the run.
  bool ok() const { return error_.empty(); }

  /// First failure message ("" while ok()).
  const std::string& error() const { return error_; }

 protected:
  void CountEvent() { ++total_events_; }
  void CountWritten(std::uint64_t n = 1) { events_written_ += n; }

  /// Records the first failure; later calls keep the original message.
  void SetError(std::string message) {
    if (error_.empty()) error_ = std::move(message);
  }

 private:
  std::uint64_t total_events_ = 0;
  std::uint64_t events_written_ = 0;
  std::uint64_t label_epoch_;  // assigned at construction, see trace_sink.cc
  std::string error_;
};

/// Caller-side slot for one recurring label's RegisterLabel() token.
/// Emission sites keep one per label (a mutable member next to the string
/// it names) and call Resolve() with the current sink on every event: a
/// matching epoch is two loads and a compare, a mismatch — first use, or
/// a different sink since the last event — re-registers. Epochs are
/// process-unique, so a stale token can never leak across sinks, even
/// when a new sink is allocated where a destroyed one lived.
struct TraceLabelCache {
  std::uint64_t epoch = 0;  // 0: never registered (real epochs start at 1)
  std::uint32_t id = 0;
  /// Cached `sink->fast_path() == kBinary`, refreshed with the epoch, so
  /// the per-event devirtualization test is a plain flag load.
  bool binary = false;

  std::uint32_t Resolve(TraceSink* sink, std::string_view label) {
    if (sink->label_epoch() != epoch) {
      id = sink->RegisterLabel(label);
      epoch = sink->label_epoch();
      binary = sink->fast_path() == TraceSink::FastPath::kBinary;
    }
    return id;
  }

  /// True when `sink` is the BinaryTraceSink this cache last resolved
  /// against: `id` is valid for it, so the emission site may call the
  /// sink's non-virtual typed encoders directly — without recomputing
  /// the label string, which on the protocol hot path means skipping a
  /// virtual name() call per event. A mismatch (first event, or a new
  /// sink since) falls back to Resolve() + the virtual write, which
  /// also primes this fast path for the next event.
  bool BinaryHit(const TraceSink* sink) const {
    return binary && epoch == sink->label_epoch();
  }
};

/// Renders one event in the dynvote-trace-v1 JSONL form (no trailing
/// newline). Appends to `out` so callers can reuse a buffer.
void AppendTraceEventJson(const TraceEvent& event, std::string* out);

/// The JSONL header line identifying the schema; written once at the top
/// of a trace file, before any events.
std::string TraceHeaderLine(std::uint64_t seed);

}  // namespace dynvote
