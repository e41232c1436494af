// The paper's stochastic testbed model, implemented once: per-site
// exponential failures (Table 1) with the hardware/software repair mix,
// staggered preventive-maintenance windows, repeater failures, and the
// workload — the closed-loop single accessor of Section 4 (one access
// per day) or the serving model's open-loop arrivals per replica. Both
// engines drive one SamplePath per object: RunSoloAvailabilityExperiment
// with the real protocol objects, the batched engine with its plain-data
// protocol slots. Every policy of a run observes the same sample path
// (common random numbers, the way the paper's single testbed model
// compares them).
//
// The event loop idiom, shared by both engines:
//
//   while (path.Advance(horizon)) {
//     ...                             // e.g. stamp the trace clock
//     PathEvent ev = path.Apply();    // NetworkState already updated
//     ...                             // react: refresh, sample, access
//   }
//
// Advance() leaves a calendar event on the calendar's top, and Apply()
// runs the whole process step — publish the new up/down state, then draw
// and schedule the follow-up events — before the engine reacts. The
// first follow-up replaces the applied event on the top in one sift
// (CalendarQueue::ReplaceTop); an event with no follow-up is popped at
// the end of Apply(). Reactions must not draw from the path's generators
// or schedule events (they have no way to), so the draw sequence and the
// schedule order are the path's alone: a run is a pure function of its
// seed.
//
// Determinism contract:
//   - RNG fan-out: one master Rng(seed) split to the sites in id order,
//     then to the repeaters; the closed-loop access stream is
//     Rng(seed ^ 0x5DEECE66D); the open-loop streams are seeded from a
//     SplitMix64(seed ^ 0x6C8E9CF570932BD5) expansion in site order.
//   - schedule order at start: per site, the first failure draw then
//     the maintenance phase draw; then each repeater's first failure;
//     then the access or arrival streams. Events pop in (time,
//     schedule-seq) order (sim/calendar_queue.h), so equal timestamps
//     fire in schedule order. A follow-up that replaces the applied
//     event on the top takes the seq Schedule would have assigned, so
//     leaving the event on the top until Apply() changes no order.
//   - the workload (the closed-loop access, or one open-loop arrival
//     stream per replica) stays off the calendar: each stream keeps its
//     one pending event in a slot beside it, and the earliest is copied
//     into one workload slot. Scheduling reserves the calendar's next
//     schedule-seq (ReserveSeq), and Advance() takes the workload slot
//     before the calendar's top exactly when its (time, seq) is the
//     smaller, so the event order is the one a heap holding every stream
//     would give. Each access or arrival draws its type, then the gap to
//     that stream's next.
//   - DrainWorkload() consumes, in that same order and with the same
//     draws, every access or arrival due before the next calendar event:
//     a caller that handles them without stepping (the batched engine's
//     repeated accesses, the solo engine's untraced serving arrivals)
//     runs them in one loop instead of one Advance()/Apply() each.
//   - cancellation: maintenance start stops the site's failure clock by
//     bumping a generation counter carried in the pending failure's
//     payload; Advance() drops a failure whose generation is stale
//     without reporting it (no dispatch, no sequence number).

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/protocol.h"
#include "model/open_loop.h"
#include "model/site_profile.h"
#include "net/network_state.h"
#include "sim/calendar_queue.h"
#include "sim/time.h"
#include "util/rng.h"
#include "util/site_set.h"
#include "util/status.h"

namespace dynvote {

struct ExperimentSpec;

/// Shape of the paper's closed-loop access workload.
struct AccessOptions {
  /// Mean accesses per day. Must be > 0; set `enabled` false for a
  /// workload with no accesses at all.
  double rate_per_day = 1.0;
  /// If true, accesses arrive exactly 1/rate apart; otherwise arrivals
  /// are Poisson (exponential gaps).
  bool deterministic = false;
  /// Fraction of accesses that are writes; the remainder are reads.
  double write_fraction = 0.5;
  /// Disables the workload entirely when false.
  bool enabled = true;
};

/// What the engine must react to after SamplePath::Apply().
struct PathEvent {
  enum class Kind : std::uint8_t {
    /// A site or repeater up state was published (possibly unchanged,
    /// e.g. a failure during maintenance): refresh and sample.
    kNetwork,
    /// The closed-loop user attempts one access of `type`.
    kAccess,
    /// An open-loop arrival of `type` at replica site `origin`.
    kArrival,
  };
  Kind kind = Kind::kNetwork;
  AccessType type = AccessType::kRead;
  SiteId origin = -1;
};
// Apply() returns it in one register.
static_assert(sizeof(PathEvent) == 8);

/// The failure, repair, maintenance and workload processes of one object
/// on one event calendar. Single-threaded; one per object per run.
class SamplePath {
 public:
  /// The one validation of everything the processes read: the topology,
  /// the measurement window, one profile per site and per repeater (a
  /// finite MTTF > 0, a hardware fraction in [0, 1], finite non-negative
  /// restart, repair and maintenance durations, and a maintenance window
  /// no longer than its interval), and the workload — the access
  /// options, or, when spec.options.serving is enabled, the serving
  /// options and a non-empty `arrival_sites`. Whatever passes schedules
  /// no event into the past.
  static Status Validate(const ExperimentSpec& spec, SiteSet arrival_sites);

  /// Builds the processes for a spec that passed Validate() and
  /// schedules their first events. The open-loop arrival streams (serving
  /// enabled) target `arrival_sites`; the closed-loop stream otherwise.
  /// `spec` must outlive the path; `spec.options.seed` is ignored in
  /// favour of `seed`.
  SamplePath(const ExperimentSpec& spec, SiteSet arrival_sites,
             std::uint64_t seed);
  /// The path keeps references into `spec`, so a temporary is refused.
  SamplePath(const ExperimentSpec&& spec, SiteSet arrival_sites,
             std::uint64_t seed) = delete;

  SamplePath(const SamplePath&) = delete;
  SamplePath& operator=(const SamplePath&) = delete;

  /// Takes the next live event at or before `horizon` and moves the
  /// clock to it, dropping cancelled failures on the way. False when none
  /// is left; events after `horizon` stay pending. A calendar event stays
  /// on the calendar's top until Apply() replaces or pops it.
  bool Advance(SimTime horizon) {
    DropCancelled();
    const CalendarEvent& next = NextCalendarEvent();
    if (FiresBefore(next_workload_, next)) {
      if (next_workload_.when > horizon) return false;
      now_ = next_workload_.when;
      current_ = next_workload_.payload;
      return true;
    }
    if (queue_.Empty() || next.when > horizon) return false;
    now_ = next.when;
    current_ = next.payload;
    current_on_top_ = true;
    return true;
  }

  /// Applies the event Advance() took: updates the NetworkState, draws
  /// and schedules the follow-up events, and returns what the engine must
  /// react to. Call exactly once per successful Advance().
  PathEvent Apply();

  /// Consumes every access or arrival due at or before `horizon` and
  /// before the next live calendar event, in order: the clock moves to
  /// each, its type and the next gap are drawn as Apply() would draw
  /// them, and `per_event(time, type, origin)` runs, `origin` being the
  /// arrival's replica site (-1 for a closed-loop access). Returns how
  /// many it consumed. Call it between events (after an Apply()), never
  /// between Advance() and Apply().
  template <typename PerEvent>
  std::uint64_t DrainWorkload(SimTime horizon, PerEvent&& per_event) {
    DropCancelled();
    const CalendarEvent next = NextCalendarEvent();
    std::uint64_t drained = 0;
    while (next_workload_.when <= horizon &&
           FiresBefore(next_workload_, next)) {
      now_ = next_workload_.when;
      SiteId origin = -1;
      AccessType type;
      if (KindOf(next_workload_.payload) == EventKind::kAccess) {
        type = OnAccess();
      } else {
        const int stream = EntityOf(next_workload_.payload);
        origin = streams_[static_cast<std::size_t>(stream)].site;
        type = OnArrival(stream);
      }
      per_event(now_, type, origin);
      ++drained;
    }
    return drained;
  }

  /// Time of the event being applied (0 before the first).
  SimTime now() const { return now_; }

  /// The network the processes drive. Engines read it and may attach an
  /// observability context; only the path changes up states.
  NetworkState& net() { return net_; }
  const NetworkState& net() const { return net_; }

 private:
  /// Failure-process state of one site. A site is up iff it is neither
  /// failed nor in maintenance; while it is down its failure clock is
  /// stopped (a powered-off machine cannot fail), and exponential
  /// lifetimes make the restart of the clock memoryless.
  struct SiteSlot {
    Rng rng{0};
    std::uint32_t failure_generation = 0;
    bool failed = false;
    bool in_maintenance = false;

    bool EffectiveUp() const { return !failed && !in_maintenance; }
  };

  /// One replica's open-loop arrival stream and its pending arrival. Its
  /// own generator, so the interleaving of streams never changes which
  /// draw a site sees.
  struct ArrivalStream {
    SiteId site;
    Rng rng;
    /// The pending arrival: time, reserved seq, and the payload Apply()
    /// dispatches on (kind and stream index).
    CalendarEvent next;
  };

  /// Payload layout: kind in bits 0-2, entity (site, repeater or
  /// arrival stream) in bits 3-10, failure generation in the high 32
  /// bits.
  enum class EventKind : std::uint64_t {
    kSiteFailure = 0,
    kSiteRepair = 1,
    kMaintenanceStart = 2,
    kMaintenanceEnd = 3,
    kRepeaterFailure = 4,
    kRepeaterRepair = 5,
    kAccess = 6,
    kArrival = 7,
  };

  static constexpr std::uint64_t Pack(EventKind kind, int entity,
                                      std::uint32_t generation = 0) {
    return static_cast<std::uint64_t>(kind) |
           (static_cast<std::uint64_t>(entity) << 3) |
           (static_cast<std::uint64_t>(generation) << 32);
  }
  static constexpr EventKind KindOf(std::uint64_t payload) {
    return static_cast<EventKind>(payload & 0x7);
  }
  static constexpr int EntityOf(std::uint64_t payload) {
    return static_cast<int>((payload >> 3) & 0xFF);
  }

  /// A site failure scheduled before the site's latest maintenance start.
  bool IsCancelled(std::uint64_t payload) const {
    return KindOf(payload) == EventKind::kSiteFailure &&
           static_cast<std::uint32_t>(payload >> 32) !=
               sites_[static_cast<std::size_t>(EntityOf(payload))]
                   .failure_generation;
  }

  /// Pops cancelled failures off the top of the calendar, so Peek() is
  /// the next live event. They carry no effect, so when they go is moot.
  void DropCancelled() {
    while (!queue_.Empty() && IsCancelled(queue_.Peek().payload)) {
      queue_.PopNext();
    }
  }

  /// Stands for "no event": every event fires before it, and it fires
  /// before none.
  static constexpr CalendarEvent kNoEvent{
      std::numeric_limits<SimTime>::infinity(),
      std::numeric_limits<std::uint64_t>::max(), 0};

  /// The calendar's next event, kNoEvent when it is empty.
  const CalendarEvent& NextCalendarEvent() const {
    return queue_.Empty() ? kNoEvent : queue_.Peek();
  }

  /// The time `delay` days from now; `delay` must be finite and
  /// non-negative, and so must the sum.
  SimTime TimeIn(SimTime delay) const;
  /// Schedules `payload` `delay` days from now (see TimeIn).
  void ScheduleIn(SimTime delay, std::uint64_t payload);
  /// Schedules `payload` at absolute time `when`, which must be finite
  /// and not in the past.
  void ScheduleAt(SimTime when, std::uint64_t payload);
  /// Puts a checked event on the calendar: in place of the applied event
  /// while that is still on the top, else as a new one.
  void Enqueue(SimTime when, std::uint64_t payload);

  void ScheduleSiteFailure(SiteId s);
  void PublishSite(SiteId s);
  void OnSiteFailure(SiteId s);
  void OnSiteRepair(SiteId s);
  void OnMaintenanceStart(SiteId s);
  void OnMaintenanceEnd(SiteId s);
  void ScheduleRepeaterFailure(int r);
  void OnRepeaterFailure(int r);
  void OnRepeaterRepair(int r);
  void ScheduleAccess();
  AccessType OnAccess();
  /// Draws `stream`'s next gap into its slot and re-picks the earliest
  /// slot.
  void ScheduleArrival(ArrivalStream& stream);
  AccessType OnArrival(int stream);

  const std::vector<SiteProfile>& profiles_;
  const std::vector<RepeaterProfile>& repeater_profiles_;
  const AccessOptions access_;
  const ServingOptions serving_;

  CalendarQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t current_ = 0;  // payload of the event being applied
  /// True from Advance() taking a calendar event until Apply() replaces
  /// or pops it: the event is still the calendar's top.
  bool current_on_top_ = false;
  NetworkState net_;

  std::vector<SiteSlot> sites_;
  std::vector<Rng> repeater_rngs_;
  Rng access_rng_;
  std::vector<ArrivalStream> streams_;
  double arrival_mean_gap_ = 0.0;  // days, per stream
  /// The next access or arrival: the closed-loop access's slot, or a copy
  /// of the earliest arrival stream's. kNoEvent while there is none (the
  /// workload disabled).
  CalendarEvent next_workload_ = kNoEvent;
};

// The per-access and per-arrival steps, defined here so that
// DrainWorkload's loop inlines them.

inline void SamplePath::ScheduleAccess() {
  const double gap =
      access_.deterministic
          ? 1.0 / access_.rate_per_day
          : access_rng_.NextExponential(1.0 / access_.rate_per_day);
  // The slot takes the seq Schedule would have assigned, so the access
  // keeps its place among equal-time calendar events.
  next_workload_ = CalendarEvent{TimeIn(gap), queue_.ReserveSeq(),
                                 Pack(EventKind::kAccess, 0)};
}

inline AccessType SamplePath::OnAccess() {
  // Draw order: access type, then the next gap.
  const AccessType type = access_rng_.NextBernoulli(access_.write_fraction)
                              ? AccessType::kWrite
                              : AccessType::kRead;
  ScheduleAccess();
  return type;
}

inline void SamplePath::ScheduleArrival(ArrivalStream& stream) {
  stream.next =
      CalendarEvent{TimeIn(stream.rng.NextExponential(arrival_mean_gap_)),
                    queue_.ReserveSeq(), stream.next.payload};
  next_workload_ = stream.next;
  for (const ArrivalStream& other : streams_) {
    if (FiresBefore(other.next, next_workload_)) next_workload_ = other.next;
  }
}

inline AccessType SamplePath::OnArrival(int stream) {
  ArrivalStream& arrivals = streams_[static_cast<std::size_t>(stream)];
  // Draw order: access type, then the next gap.
  const AccessType type =
      arrivals.rng.NextBernoulli(serving_.write_fraction) ? AccessType::kWrite
                                                          : AccessType::kRead;
  ScheduleArrival(arrivals);
  return type;
}

}  // namespace dynvote
