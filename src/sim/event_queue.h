#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/thread_annotations.h"
#include "sim/event.h"
#include "sim/time.h"

namespace vedr::sim {

/// The engine's scheduling core: a pool of event slots addressed by a
/// one-nanosecond timing wheel for near events and an indexed 4-ary heap
/// for the rest.
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
/// Where an event waits is decided once, when it is scheduled:
///   - less than kWheelSpan ns past the last popped time: the wheel, one
///     bucket per tick (`at & (kWheelSpan - 1)`), each bucket a FIFO linked
///     through the slot pool. A bucket holds a single tick and is appended
///     in seq order, so it is already sorted on (time, seq); a bitmap of
///     non-empty buckets finds the next one. Schedule, cancel and pop are
///     O(1).
///   - kWheelSpan ns or further ahead: the overflow heap, keyed on
///     (time, seq). Its events never move into the wheel.
/// run_next() pops whichever of the wheel's first event and the heap's top
/// is earlier on (time, seq), so pop order is exactly the single-heap
/// order (DESIGN.md §8, "Timing wheel and overflow heap"). No event may be
/// scheduled before the last popped time (a check fails otherwise): it
/// would land in a bucket the wheel has already passed.
///
/// Two scheduling paths share the pool and the sequence counter:
///   - schedule_event(): a typed event — EventKind plus a POD payload,
///     dispatched through the kind's registered handler. The steady-state
///     data plane performs zero heap allocations once the pool and heap
///     have grown to the workload's high-water mark.
///   - schedule_callback(): the cold-path escape hatch storing an arbitrary
///     std::function in the slot (tests, injector glue, report delivery).
///
/// Threading contract: VEDR_SINGLE_THREADED — the queue (wheel, heap, slot
/// pool, free list) is confined to the simulation thread that owns it. The
/// coming sharded engine gives each shard its own EventQueue; cross-shard
/// handoff happens at a higher layer, never by touching another shard's
/// queue.
class VEDR_SINGLE_THREADED EventQueue {
 public:
  /// The wheel's reach in ns: a 2 µs link delay plus an MTU's serialization
  /// at 100 Gb/s fits with room to spare, so at the default link parameters
  /// packet deliveries and tx-done events never touch the heap. A power of
  /// two, so a bucket is `at & mask`.
  static constexpr Tick kWheelSpan = 4096;

  EventQueue();

  EventId schedule_event(Tick at, EventKind kind, const EventPayload& payload);
  EventId schedule_callback(Tick at, std::function<void()> fn);

  /// Removes the event if it has not fired yet; reclaims its slot (and any
  /// closure) immediately. Returns true when an event was actually cancelled.
  bool cancel(EventId id);

  /// Registers the dispatch handler for a typed kind. Idempotent for the
  /// same function; a conflicting re-registration is a wiring bug and fails
  /// a check. kCallback needs no handler.
  void set_handler(EventKind kind, EventHandler fn);
  EventHandler handler(EventKind kind) const { return handlers_[index_of(kind)]; }

  /// Live events, in the wheel and the heap together.
  bool empty() const { return size() == 0; }
  std::size_t size() const { return wheel_size_ + heap_.size(); }

  /// Time of the earliest live event; kNever when empty.
  Tick next_time() const;

  /// Pops and runs the earliest event. Returns its time.
  /// Precondition: !empty().
  Tick run_next();

  std::uint64_t total_scheduled() const { return next_seq_; }
  /// Events scheduled kWheelSpan ns or more past the last popped time, which
  /// entered the overflow heap; every other schedule went to the wheel.
  std::uint64_t heap_pushes() const { return heap_pushes_; }
  /// Events popped so far, per kind (index_of(kind)).
  const std::array<std::uint64_t, kNumEventKinds>& pops_by_kind() const { return pops_; }

  /// Pool high-water mark (slots ever created). Test/bench introspection:
  /// steady state means this stops growing.
  std::size_t pool_capacity() const { return slots_.size(); }

 private:
  static constexpr Tick kWheelMask = kWheelSpan - 1;
  static constexpr std::size_t kBitmapWords = static_cast<std::size_t>(kWheelSpan) / 64;
  static_assert((kWheelSpan & kWheelMask) == 0 && kBitmapWords <= 64,
                "the wheel span is a power of two with a one-word bitmap summary");
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct HeapItem {
    Tick at = 0;
    std::uint64_t seq = 0;    ///< monotonic schedule order; same-tick tie-break
    std::uint32_t slot = 0;
  };

  struct Slot {
    EventPayload payload;
    Tick at = 0;
    std::uint64_t seq = 0;
    std::uint32_t heap_pos = 0;   ///< heap residents: index into heap_
    std::uint32_t prev = kNil;    ///< wheel residents: bucket FIFO links
    std::uint32_t next = kNil;
    std::uint32_t gen = 0;        ///< bumped on reclaim; validates EventIds
    EventKind kind = EventKind::kCallback;
    bool live = false;
    bool in_wheel = false;
    std::function<void()> fn;     ///< kCallback only; cleared on reclaim
  };

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// Non-short-circuit (time, seq) order, so a compare costs no branch.
  static bool earlier(const HeapItem& x, const HeapItem& y) {
    return (x.at < y.at) | ((x.at == y.at) & (x.seq < y.seq));
  }
  static std::size_t bucket_of(Tick at) { return static_cast<std::size_t>(at & kWheelMask); }

  std::uint32_t acquire_slot();
  void reclaim_slot(std::uint32_t slot);
  /// Takes a slot for an event at `at`, stamps its seq and files it in the
  /// wheel or the heap; the caller fills in kind and payload.
  std::uint32_t insert(Tick at);
  void wheel_append(std::uint32_t slot);
  void wheel_unlink(std::uint32_t slot);
  /// The time of the first non-empty bucket at or after `from`, or kForever
  /// when the wheel is empty. Every wheel event must lie in
  /// [from, from + kWheelSpan).
  Tick wheel_scan(Tick from) const;
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void heap_remove(std::size_t pos);

  std::vector<Bucket> buckets_;                        ///< kWheelSpan FIFOs
  std::array<std::uint64_t, kBitmapWords> occupied_{};  ///< non-empty buckets
  std::uint64_t occupied_words_ = 0;                    ///< non-zero occupied_ words
  std::size_t wheel_size_ = 0;
  Tick wheel_first_ = kForever;        ///< earliest wheel time; kForever when empty
  std::vector<HeapItem> heap_;         ///< 4-ary min-heap on (at, seq)
  std::vector<Slot> slots_;            ///< pooled event storage
  std::vector<std::uint32_t> free_;    ///< reclaimed slot indices
  std::array<EventHandler, kNumEventKinds> handlers_{};
  std::array<std::uint64_t, kNumEventKinds> pops_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t heap_pushes_ = 0;
  /// The last popped (time, seq): the wheel's base, and the audit state that
  /// machine-checks the monotonic-time + stable-tie-break guarantee.
  Tick last_pop_time_ = 0;
  std::uint64_t last_pop_seq_ = 0;
  bool has_popped_ = false;
};

}  // namespace vedr::sim
