#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/ring.h"
#include "common/thread_annotations.h"
#include "sim/event.h"
#include "sim/time.h"

namespace vedr::sim {

/// The engine's scheduling core: a pool of event slots addressed by an
/// indexed 4-ary heap.
///
/// Determinism contract (everything the models rely on):
///   - events pop in non-decreasing time order;
///   - events at the same tick fire in the order they were scheduled
///     (a monotonic sequence number breaks ties — never addresses, never
///     hash order);
///   - cancel() truly removes the event: `size()`/`empty()` count live
///     events only, and the slot (including any stored closure) is
///     reclaimed immediately, not when a tombstone would have surfaced.
///
/// Three scheduling paths share the pool and the sequence counter:
///   - schedule_event(): a typed event — EventKind plus a POD payload,
///     dispatched through the kind's registered handler. The steady-state
///     data plane performs zero heap allocations once the pool, heap and
///     lanes have grown to the workload's high-water mark.
///   - schedule_lane_event(): a typed event on a FIFO delivery lane (one
///     per link direction). Only a lane's earliest event sits in the heap;
///     the rest wait in the lane's ring in (time, seq) order, so a lane's
///     times must never decrease, and its events cannot be cancelled.
///     Popping a lane head moves the lane's next event into the root with
///     one sift-down. Pop order is unchanged: seq rises within a lane, so
///     each lane is sorted on (time, seq) and the heap minimum is still
///     the global minimum (DESIGN.md §8, "Per-link delivery lanes").
///   - schedule_callback(): the cold-path escape hatch storing an arbitrary
///     std::function in the slot (tests, injector glue, report delivery).
///
/// Threading contract: VEDR_SINGLE_THREADED — the queue (heap, slot pool,
/// free list) is confined to the simulation thread that owns it. The coming
/// sharded engine gives each shard its own EventQueue; cross-shard handoff
/// happens at a higher layer, never by touching another shard's queue.
class VEDR_SINGLE_THREADED EventQueue {
 public:
  EventQueue() = default;

  EventId schedule_event(Tick at, EventKind kind, const EventPayload& payload);
  EventId schedule_callback(Tick at, std::function<void()> fn);

  /// Grows the lane table to `n` FIFO delivery lanes (never shrinks).
  void set_lanes(std::size_t n);

  /// Schedules a typed event on `lane`. `at` must not be earlier than the
  /// lane's previous event (a check fails otherwise).
  EventId schedule_lane_event(std::uint32_t lane, Tick at, EventKind kind,
                              const EventPayload& payload);

  /// Removes the event if it has not fired yet; reclaims its slot (and any
  /// closure) immediately. Returns true when an event was actually cancelled.
  /// Cancelling a live lane event fails a check.
  bool cancel(EventId id);

  /// Registers the dispatch handler for a typed kind. Idempotent for the
  /// same function; a conflicting re-registration is a wiring bug and fails
  /// a check. kCallback needs no handler.
  void set_handler(EventKind kind, EventHandler fn);
  EventHandler handler(EventKind kind) const { return handlers_[index_of(kind)]; }

  /// Live events, including those waiting behind a lane head. A lane with
  /// events always has its head in the heap, so the heap is empty exactly
  /// when the queue is.
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size() + lane_held_; }

  /// Time of the earliest live event; kNever when empty.
  Tick next_time() const { return heap_.empty() ? kNever : heap_.front().at; }

  /// Pops and runs the earliest event. Returns its time.
  /// Precondition: !empty().
  Tick run_next();

  std::uint64_t total_scheduled() const { return next_seq_; }
  /// Events that entered the heap with a sift-up, and events appended
  /// behind a lane head. Every schedule is exactly one of the two.
  std::uint64_t heap_pushes() const { return heap_pushes_; }
  std::uint64_t lane_appends() const { return next_seq_ - heap_pushes_; }

  /// Pool high-water mark (slots ever created). Test/bench introspection:
  /// steady state means this stops growing.
  std::size_t pool_capacity() const { return slots_.size(); }
  /// Ring slots allocated across all lanes; likewise stops growing.
  std::size_t lane_capacity() const;

 private:
  struct HeapItem {
    Tick at = 0;
    std::uint64_t seq = 0;    ///< monotonic schedule order; same-tick tie-break
    std::uint32_t slot = 0;
  };

  static constexpr std::uint32_t kNoLane = ~std::uint32_t{0};

  struct Slot {
    EventPayload payload;
    std::function<void()> fn;  ///< kCallback only; cleared on reclaim
    std::uint32_t heap_pos = 0;
    std::uint32_t gen = 0;     ///< bumped on reclaim; validates EventIds
    std::uint32_t lane = kNoLane;
    EventKind kind = EventKind::kCallback;
    bool live = false;
  };

  struct Lane {
    common::Ring<HeapItem> pending;  ///< events behind the head, FIFO
    Tick last_at = std::numeric_limits<Tick>::min();  ///< time of its latest event
    bool head_in_heap = false;
  };

  /// Non-short-circuit (time, seq) order, so a compare costs no branch.
  static bool earlier(const HeapItem& x, const HeapItem& y) {
    return (x.at < y.at) | ((x.at == y.at) & (x.seq < y.seq));
  }

  std::uint32_t acquire_slot();
  void reclaim_slot(std::uint32_t slot);
  EventId push(Tick at, std::uint32_t slot);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void heap_remove(std::size_t pos);

  std::vector<HeapItem> heap_;        ///< 4-ary min-heap on (at, seq)
  std::vector<Slot> slots_;           ///< pooled event storage
  std::vector<std::uint32_t> free_;   ///< reclaimed slot indices
  std::vector<Lane> lanes_;
  std::size_t lane_held_ = 0;         ///< events waiting behind lane heads
  std::array<EventHandler, kNumEventKinds> handlers_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t heap_pushes_ = 0;
  // Invariant-audit state: the last popped (time, seq), to machine-check the
  // monotonic-time + stable-tie-break guarantee documented above.
  Tick last_pop_time_ = 0;
  std::uint64_t last_pop_seq_ = 0;
  bool has_popped_ = false;
};

}  // namespace vedr::sim
