#include "sim/event_queue.h"

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

EventId EventQueue::push(Tick at, std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = true;
  heap_.push_back(HeapItem{at, next_seq_++, slot});
  ++heap_pushes_;
  sift_up(heap_.size() - 1);
  return make_id(slot, s.gen);
}

EventId EventQueue::schedule_event(Tick at, EventKind kind, const EventPayload& payload) {
  VEDR_ASSERT(kind != EventKind::kCallback, "schedule_event cannot carry a closure");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.kind = kind;
  s.payload = payload;
  s.lane = kNoLane;
  return push(at, slot);
}

EventId EventQueue::schedule_callback(Tick at, std::function<void()> fn) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.kind = EventKind::kCallback;
  s.fn = std::move(fn);
  s.lane = kNoLane;
  return push(at, slot);
}

void EventQueue::set_lanes(std::size_t n) {
  VEDR_CHECK(n < kNoLane, "too many delivery lanes: ", n);
  if (n > lanes_.size()) lanes_.resize(n);
}

EventId EventQueue::schedule_lane_event(std::uint32_t lane, Tick at, EventKind kind,
                                        const EventPayload& payload) {
  VEDR_ASSERT(kind != EventKind::kCallback, "schedule_lane_event cannot carry a closure");
  VEDR_CHECK_LT(lane, lanes_.size(), "delivery lane out of range");
  Lane& l = lanes_[lane];
  // The FIFO argument: each lane's (time, seq) keys must rise, so the lane
  // head is always its earliest event.
  VEDR_CHECK_GE(at, l.last_at, "delivery lane ", lane, " scheduled out of time order");
  l.last_at = at;
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.kind = kind;
  s.payload = payload;
  s.lane = lane;
  if (!l.head_in_heap) {
    l.head_in_heap = true;
    return push(at, slot);
  }
  s.live = true;
  l.pending.push_back(HeapItem{at, next_seq_++, slot});
  ++lane_held_;
  return make_id(slot, s.gen);
}

std::size_t EventQueue::lane_capacity() const {
  std::size_t n = 0;
  for (const Lane& l : lanes_) n += l.pending.capacity();
  return n;
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.live || s.gen != gen) return false;  // already fired or cancelled
  // A lane event may wait in its lane's ring, outside the heap; removing it
  // would need a search of the ring. The lanes carry link deliveries, which
  // nothing cancels.
  VEDR_CHECK(s.lane == kNoLane, "lane events cannot be cancelled (lane ", s.lane, ")");
  heap_remove(s.heap_pos);
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

Tick EventQueue::run_next() {
  VEDR_CHECK(!heap_.empty(), "run_next() on an empty event queue (scheduled=", next_seq_, ")");
  const HeapItem top = heap_.front();
  // Time must never run backwards, and equal-time events must pop in
  // schedule order — the determinism contract every model relies on.
  if (has_popped_) {
    VEDR_CHECK_GE(top.at, last_pop_time_, "event queue popped out of time order");
    if (top.at == last_pop_time_) {
      VEDR_CHECK_GT(top.seq, last_pop_seq_,
                    "same-tick events popped out of schedule order at t=", top.at);
    }
  }
  has_popped_ = true;
  last_pop_time_ = top.at;
  last_pop_seq_ = top.seq;

  Slot& s = slots_[top.slot];
  if (s.lane == kNoLane) {
    heap_remove(0);
  } else if (Lane& l = lanes_[s.lane]; !l.pending.empty()) {
    // The lane's next event takes the root: one sift-down, no sift-up.
    heap_[0] = l.pending.pop_front();
    --lane_held_;
    sift_down(0);
  } else {
    l.head_in_heap = false;
    heap_remove(0);
  }
  const EventKind kind = s.kind;
  const EventPayload payload = s.payload;
  std::function<void()> fn;
  if (kind == EventKind::kCallback) fn = std::move(s.fn);
  // Reclaim before dispatch so work scheduled by the handler reuses slots.
  reclaim_slot(top.slot);

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
  return top.at;
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
