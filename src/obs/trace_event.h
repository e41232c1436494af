// One typed record per observable occurrence in a run: what the generic
// TraceSink::Write() takes and what BinaryRecordDecoder decodes into. A
// single struct (rather than a class hierarchy) lets sinks and renderers
// switch on `type` without RTTI; fields not meaningful for a given type
// keep their defaults and are omitted from the JSONL form.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/reason.h"

namespace dynvote {

/// Trace schema identifier written into every trace header and checked
/// by the reader; bump when the JSONL field set changes incompatibly.
inline constexpr const char kTraceSchema[] = "dynvote-trace-v1";

enum class TraceEventType : std::uint8_t {
  /// A site or repeater changed state and the component partition moved.
  kNet = 0,
  /// The simulator dispatched a scheduled event.
  kSim,
  /// A protocol evaluated a quorum for one group of communicating sites.
  kQuorum,
  /// A whole user access (possibly probing several groups) completed.
  kAccess,
  /// The tracked availability status flipped.
  kAvail,
  /// An open-loop serving arrival finished its queueing stage: carries
  /// the arrival-to-completion latency and the per-access message count
  /// (see model/open_loop.h and docs/serving.md).
  kServing,
};

constexpr const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kNet:
      return "net";
    case TraceEventType::kSim:
      return "sim";
    case TraceEventType::kQuorum:
      return "quorum";
    case TraceEventType::kAccess:
      return "access";
    case TraceEventType::kAvail:
      return "avail";
    case TraceEventType::kServing:
      return "serving";
  }
  return "?";
}

struct TraceEvent {
  TraceEventType type = TraceEventType::kSim;
  /// Simulation time of the event.
  double t = 0.0;
  /// Replication index (-1 outside replicated runs).
  int replication = -1;
  /// Simulator dispatch sequence number active when the event fired.
  std::uint64_t seq = 0;

  // --- net ---
  /// Site or repeater id that flipped (-1 when not applicable).
  int site = -1;
  /// True if the flip target is a repeater, not a site.
  bool repeater = false;
  bool up = false;
  /// NetworkState::generation() after the flip.
  std::uint64_t generation = 0;
  /// Component partition after the flip, one site mask per component.
  std::vector<std::uint64_t> components;

  // --- sim ---
  /// Static label of the dispatched event kind (e.g. "site_repair").
  const char* op = "";

  // --- quorum / access ---
  /// Protocol name (SSO-sized in practice: "MCV", "LDV", "OTDV", ...).
  std::string protocol;
  /// True for writes, false for reads.
  bool write = false;
  /// Originating site of the access (-1 when not applicable).
  int origin = -1;
  bool granted = false;
  QuorumReason reason = QuorumReason::kDeniedNoCopies;
  /// Quorum-evaluation site sets (masks): the probed group, reachable
  /// copies R, highest-operation set Q, current set S, counted set T,
  /// previous majority block Pm. Zero when not populated.
  std::uint64_t group = 0;
  std::uint64_t set_r = 0;
  std::uint64_t set_q = 0;
  std::uint64_t set_s = 0;
  std::uint64_t set_t = 0;
  std::uint64_t set_pm = 0;

  // --- avail ---
  bool available = false;

  // --- serving ---
  /// Arrival-to-completion latency of the serving stage, milliseconds.
  double latency_ms = 0.0;
  /// Control messages the protocol sent for this one access.
  std::uint32_t msgs = 0;
  /// Requests already queued at the arrival replica when this one arrived.
  std::uint32_t depth = 0;
};

/// The site-set masks of one quorum evaluation, bundled so the typed
/// TraceSink::WriteQuorum fast path stays a readable signature. Masks a
/// decision did not populate stay zero (a cache hit carries only
/// `group`).
struct QuorumSetMasks {
  std::uint64_t group = 0;
  std::uint64_t r = 0;
  std::uint64_t q = 0;
  std::uint64_t s = 0;
  std::uint64_t t = 0;
  std::uint64_t pm = 0;
};

}  // namespace dynvote
