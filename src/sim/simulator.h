#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace vedr::obs {
class Histogram;
}  // namespace vedr::obs

namespace vedr::sim {

class StatsRegistry;

/// The simulation kernel: a clock plus an event queue.
///
/// All model components hold a reference to one Simulator and schedule work
/// relative to now(). The kernel guarantees monotonically non-decreasing
/// time and deterministic ordering of simultaneous events.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Tick now() const { return now_; }

  /// Schedules a typed event `delay` ns from now (delay may be 0). This is
  /// the steady-state data-plane path: no heap allocation once the engine's
  /// pool has warmed up.
  EventId schedule_event_in(Tick delay, EventKind kind, const EventPayload& payload) {
    return queue_.schedule_event(now_ + (delay < 0 ? 0 : delay), kind, payload);
  }

  /// Schedules a typed event at absolute time `at` (clamped to now()).
  EventId schedule_event_at(Tick at, EventKind kind, const EventPayload& payload) {
    return queue_.schedule_event(at < now_ ? now_ : at, kind, payload);
  }

  /// Schedule and pop counters of the queue (EventQueue::heap_pushes and
  /// pops_by_kind): exact and deterministic, and read by no digest.
  std::uint64_t heap_pushes() const { return queue_.heap_pushes(); }
  const std::array<std::uint64_t, kNumEventKinds>& pops_by_kind() const {
    return queue_.pops_by_kind();
  }

  /// Registers the dispatch handler for a typed kind (idempotent for the
  /// same function; a conflicting registration fails a check).
  void set_handler(EventKind kind, EventHandler fn) { queue_.set_handler(kind, fn); }

  /// Schedules `fn` to run `delay` ns from now (delay may be 0).
  /// Cold-path escape hatch — allocates for the closure; keep it off the
  /// per-packet path.
  EventId schedule_in(Tick delay, std::function<void()> fn) {
    return queue_.schedule_callback(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Schedules `fn` at absolute time `at` (clamped to now()). Cold path.
  EventId schedule_at(Tick at, std::function<void()> fn) {
    return queue_.schedule_callback(at < now_ ? now_ : at, std::move(fn));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the queue drains or the next event is later than `until`
  /// (inclusive bound: an event at exactly `until` runs). Returns the number
  /// of events executed.
  std::uint64_t run(Tick until = kForever);

  /// Executes exactly one event if available. Returns false when idle.
  bool step();

  bool idle() const { return queue_.empty(); }
  /// Time of the earliest pending event; kNever when idle. The sharded
  /// engine's window scheduler reads this at barrier quiesce points to pick
  /// the next conservative window start.
  Tick next_event_time() const { return queue_.next_time(); }
  std::uint64_t events_executed() const { return executed_; }

  /// Attaches a stats registry for kernel self-observation (currently a
  /// sampled event-dispatch latency histogram, `sim.dispatch_ns`). The
  /// registry must outlive the simulator. Sampling only happens while
  /// obs::metrics_enabled() is on; otherwise the run loop stays free of
  /// wall-clock reads.
  void set_stats(StatsRegistry* stats);

 private:
  /// Every 64th dispatch is timed when metrics are on — frequent enough for a
  /// stable latency distribution, rare enough that the two clock reads are
  /// noise at millions of events per second.
  static constexpr std::uint64_t kDispatchSampleMask = 63;

  EventQueue queue_;
  Tick now_ = 0;
  std::uint64_t executed_ = 0;
  obs::Histogram* dispatch_hist_ = nullptr;  // interned cell; null until set_stats
};

}  // namespace vedr::sim
