#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"

namespace vedr::sim {

namespace {

constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<EventId>(gen) << 32) | slot;
}

}  // namespace

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kCallback: return "callback";
    case EventKind::kPacketDelivery: return "packet-delivery";
    case EventKind::kHostTxDone: return "host-tx-done";
    case EventKind::kSwitchTxDone: return "switch-tx-done";
    case EventKind::kHostWakeup: return "host-wakeup";
    case EventKind::kPfcResume: return "pfc-resume";
    case EventKind::kDcqcnAlpha: return "dcqcn-alpha";
    case EventKind::kDcqcnIncrease: return "dcqcn-increase";
    case EventKind::kStepPoll: return "step-poll";
    case EventKind::kPollSweep: return "poll-sweep";
    case EventKind::kCollectiveStart: return "collective-start";
    case EventKind::kInjectorTrigger: return "injector-trigger";
  }
  return "?";
}

EventQueue::EventQueue() : buckets_(static_cast<std::size_t>(kWheelSpan)) {}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::reclaim_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  ++s.gen;                // invalidate outstanding EventIds for this slot
  s.fn = nullptr;         // release any closure (and its captures) now
  s.payload = EventPayload{};
  free_.push_back(slot);
}

std::uint32_t EventQueue::insert(Tick at) {
  // The one way an event could alias a future bucket: a time the wheel has
  // already passed. Checked before the slot is taken, so a rejected
  // schedule leaves the queue as it was.
  VEDR_CHECK_GE(at, last_pop_time_, "event scheduled before the last popped time");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.live = true;
  s.at = at;
  s.seq = next_seq_++;
  s.in_wheel = at - last_pop_time_ < kWheelSpan;
  if (s.in_wheel) {
    wheel_append(slot);
  } else {
    heap_.push_back(HeapItem{at, s.seq, slot});
    ++heap_pushes_;
    sift_up(heap_.size() - 1);
  }
  return slot;
}

EventId EventQueue::schedule_event(Tick at, EventKind kind, const EventPayload& payload) {
  VEDR_ASSERT(kind != EventKind::kCallback, "schedule_event cannot carry a closure");
  const std::uint32_t slot = insert(at);
  Slot& s = slots_[slot];
  s.kind = kind;
  s.payload = payload;
  return make_id(slot, s.gen);
}

EventId EventQueue::schedule_callback(Tick at, std::function<void()> fn) {
  const std::uint32_t slot = insert(at);
  Slot& s = slots_[slot];
  s.kind = EventKind::kCallback;
  s.fn = std::move(fn);
  return make_id(slot, s.gen);
}

void EventQueue::wheel_append(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::size_t b = bucket_of(s.at);
  Bucket& bucket = buckets_[b];
  s.prev = bucket.tail;
  s.next = kNil;
  if (bucket.tail == kNil) {
    bucket.head = slot;
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
    occupied_words_ |= std::uint64_t{1} << (b >> 6);
    if (s.at < wheel_first_) wheel_first_ = s.at;
  } else {
    slots_[bucket.tail].next = slot;
  }
  bucket.tail = slot;
  ++wheel_size_;
}

void EventQueue::wheel_unlink(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  const std::size_t b = bucket_of(s.at);
  Bucket& bucket = buckets_[b];
  if (s.prev == kNil) {
    bucket.head = s.next;
  } else {
    slots_[s.prev].next = s.next;
  }
  if (s.next == kNil) {
    bucket.tail = s.prev;
  } else {
    slots_[s.next].prev = s.prev;
  }
  --wheel_size_;
  if (bucket.head != kNil) return;
  occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  if (occupied_[b >> 6] == 0) occupied_words_ &= ~(std::uint64_t{1} << (b >> 6));
  // A bucket holds one tick, so only emptying the first bucket moves the
  // wheel's first time; every other wheel event is later and within a span.
  if (s.at == wheel_first_) wheel_first_ = wheel_scan(s.at);
}

Tick EventQueue::wheel_scan(Tick from) const {
  const std::size_t b = bucket_of(from);
  const std::size_t w = b >> 6;
  std::size_t found;
  if (const std::uint64_t here = occupied_[w] & (~std::uint64_t{0} << (b & 63)); here != 0) {
    found = (w << 6) | static_cast<std::size_t>(std::countr_zero(here));
  } else {
    // The next non-empty word after w, else wrap around to the lowest one.
    const std::uint64_t later = occupied_words_ & ((~std::uint64_t{0} << w) << 1);
    const std::uint64_t words = later != 0 ? later : occupied_words_;
    if (words == 0) return kForever;
    const auto w2 = static_cast<std::size_t>(std::countr_zero(words));
    found = (w2 << 6) | static_cast<std::size_t>(std::countr_zero(occupied_[w2]));
  }
  return from + static_cast<Tick>((found - b) & static_cast<std::size_t>(kWheelMask));
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.live || s.gen != gen) return false;  // already fired or cancelled
  if (s.in_wheel) {
    wheel_unlink(slot);
  } else {
    heap_remove(s.heap_pos);
  }
  reclaim_slot(slot);
  return true;
}

void EventQueue::set_handler(EventKind kind, EventHandler fn) {
  VEDR_CHECK(kind != EventKind::kCallback, "kCallback events are not dispatched via handlers");
  VEDR_CHECK(fn != nullptr, "null handler for event kind ", to_string(kind));
  EventHandler& cur = handlers_[index_of(kind)];
  VEDR_CHECK(cur == nullptr || cur == fn,
             "conflicting handler registration for event kind ", to_string(kind));
  cur = fn;
}

Tick EventQueue::next_time() const {
  if (empty()) return kNever;
  return heap_.empty() ? wheel_first_ : std::min(wheel_first_, heap_.front().at);
}

Tick EventQueue::run_next() {
  VEDR_CHECK(!empty(), "run_next() on an empty event queue (scheduled=", next_seq_, ")");
  // The earlier of the wheel's first event and the heap's top on (time, seq).
  const std::uint32_t wheel_head =
      wheel_size_ != 0 ? buckets_[bucket_of(wheel_first_)].head : kNil;
  std::uint32_t slot;
  if (wheel_head != kNil &&
      (heap_.empty() ||
       earlier(HeapItem{wheel_first_, slots_[wheel_head].seq, wheel_head}, heap_.front()))) {
    slot = wheel_head;
    wheel_unlink(slot);
  } else {
    slot = heap_.front().slot;
    heap_remove(0);
  }
  Slot& s = slots_[slot];
  const Tick at = s.at;
  // Time must never run backwards, and equal-time events must pop in
  // schedule order — the determinism contract every model relies on.
  if (has_popped_) {
    VEDR_CHECK_GE(at, last_pop_time_, "event queue popped out of time order");
    if (at == last_pop_time_) {
      VEDR_CHECK_GT(s.seq, last_pop_seq_,
                    "same-tick events popped out of schedule order at t=", at);
    }
  }
  has_popped_ = true;
  last_pop_time_ = at;
  last_pop_seq_ = s.seq;

  const EventKind kind = s.kind;
  ++pops_[index_of(kind)];
  const EventPayload payload = s.payload;
  std::function<void()> fn;
  if (kind == EventKind::kCallback) fn = std::move(s.fn);
  // Reclaim before dispatch so work scheduled by the handler reuses slots.
  reclaim_slot(slot);

  switch (kind) {
    case EventKind::kCallback:
      fn();
      break;
    default: {
      const EventHandler h = handlers_[index_of(kind)];
      VEDR_CHECK(h != nullptr, "no handler registered for event kind ", to_string(kind));
      h(payload);
      break;
    }
  }
  return at;
}

void EventQueue::sift_up(std::size_t pos) {
  const HeapItem item = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) >> 2;
    if (!earlier(item, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = item;
  slots_[item.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_down(std::size_t pos) {
  HeapItem* const h = heap_.data();
  const HeapItem item = h[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * pos + 1;
    std::size_t best;
    if (first + 4 <= n) {
      // A full set of four children: two pairwise selects and a final one,
      // which compile to conditional moves rather than branches. Keys are
      // unique (seq), so the minimum is the same whichever way ties would go.
      const std::size_t a = first + static_cast<std::size_t>(earlier(h[first + 1], h[first]));
      const std::size_t b =
          first + 2 + static_cast<std::size_t>(earlier(h[first + 3], h[first + 2]));
      best = earlier(h[b], h[a]) ? b : a;
    } else {
      if (first >= n) break;
      best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (earlier(h[c], h[best])) best = c;
      }
    }
    if (!earlier(h[best], item)) break;
    h[pos] = h[best];
    slots_[h[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  h[pos] = item;
  slots_[item.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::heap_remove(std::size_t pos) {
  VEDR_ASSERT(pos < heap_.size(), "heap_remove out of range");
  const std::size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  heap_[pos] = heap_[last];
  heap_.pop_back();
  slots_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
  if (pos > 0 && earlier(heap_[pos], heap_[(pos - 1) >> 2])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

}  // namespace vedr::sim
