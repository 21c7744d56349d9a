#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "common/check.h"

namespace vedr::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_callback(30, [&] { order.push_back(3); });
  q.schedule_callback(10, [&] { order.push_back(1); });
  q.schedule_callback(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickRunsInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) q.schedule_callback(42, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.run_next();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kNever);
  q.schedule_callback(100, [] {});
  q.schedule_callback(50, [] {});
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueue, RunNextReturnsEventTime) {
  EventQueue q;
  q.schedule_callback(77, [] {});
  EXPECT_EQ(q.run_next(), 77);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule_callback(10, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  const EventId id = q.schedule_callback(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterRunReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule_callback(10, [] {});
  q.run_next();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_callback(10, [&] { order.push_back(1); });
  const EventId id = q.schedule_callback(20, [&] { order.push_back(2); });
  q.schedule_callback(30, [&] { order.push_back(3); });
  q.cancel(id);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule_callback(1, [] {});
  q.schedule_callback(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EventsScheduledDuringExecutionRun) {
  EventQueue q;
  int count = 0;
  q.schedule_callback(10, [&] {
    ++count;
    q.schedule_callback(20, [&] { ++count; });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, RunNextOnEmptyQueueFiresCheck) {
  EventQueue q;
  common::ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(q.run_next(), common::CheckFailure);
}

TEST(EventQueue, SameTickTieBreakSurvivesInterleavedScheduling) {
  // Schedule same-tick events both up front and from inside a running event;
  // the (time, id) tie-break must still replay exact schedule order — this is
  // the property that keeps whole-simulation runs bit-reproducible.
  EventQueue q;
  std::vector<int> order;
  q.schedule_callback(5, [&] {
    order.push_back(0);
    q.schedule_callback(5, [&] { order.push_back(3); });
    q.schedule_callback(5, [&] { order.push_back(4); });
  });
  q.schedule_callback(5, [&] { order.push_back(1); });
  q.schedule_callback(5, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, IdenticalSchedulesReplayIdentically) {
  auto run_once = [] {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 64; ++i) q.schedule_callback((i * 13) % 8, [&order, i] { order.push_back(i); });
    while (!q.empty()) q.run_next();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EventQueue, CancelReclaimsClosureImmediately) {
  // Regression: the old queue tombstoned cancelled entries, so a cancelled
  // closure (and everything it captured) stayed alive until its time came up
  // in the heap. Cancel must free the capture on the spot.
  EventQueue q;
  auto token = std::make_shared<int>(42);
  const EventId id = q.schedule_callback(1'000'000'000, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(token.use_count(), 1) << "cancelled closure must be destroyed immediately";
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, SizeAndEmptyCountLiveEventsOnly) {
  // Regression companion: with true removal there are no tombstones, so
  // size()/empty() always reflect live events — even after heavy churn.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(q.schedule_callback(i, [] {}));
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
  EXPECT_EQ(q.size(), 50u);
  std::size_t ran = 0;
  while (!q.empty()) {
    q.run_next();
    ++ran;
  }
  EXPECT_EQ(ran, 50u);
}

TEST(EventQueue, SlotPoolStopsGrowingUnderChurn) {
  // Steady state must reuse slots: with at most 2 events outstanding, the
  // pool never needs more than 2 slots no matter how many events flow.
  EventQueue q;
  q.schedule_callback(0, [] {});
  q.run_next();
  const std::size_t warm = q.pool_capacity();
  for (int i = 1; i <= 10000; ++i) {
    q.schedule_callback(i, [] {});
    q.run_next();
  }
  EXPECT_EQ(q.pool_capacity(), warm);
}

int g_typed_fired = 0;
std::vector<std::uint64_t> g_typed_payloads;

void typed_test_handler(const EventPayload& p) {
  ++g_typed_fired;
  g_typed_payloads.push_back(p.a);
}

TEST(EventQueue, TypedEventsDispatchThroughHandler) {
  EventQueue q;
  g_typed_fired = 0;
  g_typed_payloads.clear();
  q.set_handler(EventKind::kStepPoll, &typed_test_handler);
  q.schedule_event(10, EventKind::kStepPoll, {nullptr, 7, 0});
  q.schedule_event(20, EventKind::kStepPoll, {nullptr, 9, 0});
  while (!q.empty()) q.run_next();
  EXPECT_EQ(g_typed_fired, 2);
  EXPECT_EQ(g_typed_payloads, (std::vector<std::uint64_t>{7, 9}));
}

TEST(EventQueue, SameTickOrderSpansTypedAndCallbackPaths) {
  // Both scheduling paths share one sequence counter, so same-tick events
  // interleave in global schedule order regardless of which path each used.
  EventQueue q;
  static std::vector<int>* order_sink = nullptr;
  std::vector<int> order;
  order_sink = &order;
  q.set_handler(EventKind::kPollSweep,
                [](const EventPayload& p) { order_sink->push_back(static_cast<int>(p.a)); });
  q.schedule_event(5, EventKind::kPollSweep, {nullptr, 0, 0});
  q.schedule_callback(5, [&] { order.push_back(1); });
  q.schedule_event(5, EventKind::kPollSweep, {nullptr, 2, 0});
  q.schedule_callback(5, [&] { order.push_back(3); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, CancelTypedEvent) {
  EventQueue q;
  g_typed_fired = 0;
  g_typed_payloads.clear();
  q.set_handler(EventKind::kStepPoll, &typed_test_handler);
  const EventId id = q.schedule_event(10, EventKind::kStepPoll, {nullptr, 1, 0});
  q.schedule_event(20, EventKind::kStepPoll, {nullptr, 2, 0});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  while (!q.empty()) q.run_next();
  EXPECT_EQ(g_typed_payloads, (std::vector<std::uint64_t>{2}));
}

TEST(EventQueue, StaleIdCannotCancelRecycledSlot) {
  // After a slot is reclaimed and reused, an old EventId for it must not
  // cancel the new occupant (generation validation).
  EventQueue q;
  const EventId stale = q.schedule_callback(1, [] {});
  q.run_next();  // slot reclaimed
  bool ran = false;
  q.schedule_callback(2, [&] { ran = true; });  // reuses the slot
  EXPECT_FALSE(q.cancel(stale));
  while (!q.empty()) q.run_next();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, ConflictingHandlerRegistrationFiresCheck) {
  EventQueue q;
  q.set_handler(EventKind::kCollectiveStart, &typed_test_handler);
  q.set_handler(EventKind::kCollectiveStart, &typed_test_handler);  // idempotent: OK
  common::ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(q.set_handler(EventKind::kCollectiveStart,
                             [](const EventPayload&) {}),
               common::CheckFailure);
}

TEST(EventQueue, UnregisteredTypedKindFiresCheck) {
  EventQueue q;
  q.schedule_event(1, EventKind::kHostWakeup, {nullptr, 0, 0});
  common::ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(q.run_next(), common::CheckFailure);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  Tick last = -1;
  bool ordered = true;
  for (int i = 0; i < 10000; ++i) {
    const Tick t = (i * 7919) % 1000;  // pseudo-shuffled times
    q.schedule_callback(t, [&, t] {
      if (t < last) ordered = false;
      last = t;
    });
  }
  while (!q.empty()) q.run_next();
  EXPECT_TRUE(ordered);
}

// --- timing wheel and overflow heap ---------------------------------------

constexpr Tick kSpan = EventQueue::kWheelSpan;

TEST(EventQueue, WheelAndOverflowKeepGlobalTimeAndScheduleOrder) {
  // Wheel and heap share the sequence counter, so the (time, seq) order
  // spans both, typed events and callbacks alike — also when one tick holds
  // events in both places.
  EventQueue q;
  static std::vector<int>* order_sink = nullptr;
  std::vector<int> order;
  order_sink = &order;
  q.set_handler(EventKind::kPacketDelivery,
                [](const EventPayload& p) { order_sink->push_back(static_cast<int>(p.a)); });
  const Tick far = 2 * kSpan;
  q.schedule_event(far, EventKind::kPacketDelivery, {nullptr, 0, 0});       // heap
  q.schedule_event(10, EventKind::kPacketDelivery, {nullptr, 1, 0});        // wheel
  q.schedule_callback(far, [&] { order.push_back(2); });                    // heap
  EXPECT_EQ(q.run_next(), 10);
  q.schedule_event(far - kSpan + 5, EventKind::kPacketDelivery, {nullptr, 3, 0});  // wheel
  EXPECT_EQ(q.heap_pushes(), 2u);
  EXPECT_EQ(q.run_next(), far - kSpan + 5);
  // `far` is now within a span of the last pop: these two join the wheel,
  // behind the two heap events of the same tick.
  q.schedule_event(far, EventKind::kPacketDelivery, {nullptr, 4, 0});
  q.schedule_callback(far, [&] { order.push_back(5); });
  q.schedule_event(far - 1, EventKind::kPacketDelivery, {nullptr, 6, 0});
  EXPECT_EQ(q.heap_pushes(), 2u);
  std::vector<Tick> times;
  while (!q.empty()) times.push_back(q.run_next());
  EXPECT_EQ(order, (std::vector<int>{1, 3, 6, 0, 2, 4, 5}));
  EXPECT_EQ(times, (std::vector<Tick>{far - 1, far, far, far, far}));
}

TEST(EventQueue, ScheduleBeforeLastPopFiresCheck) {
  // A time the wheel has passed would alias a bucket a whole span ahead.
  EventQueue q;
  q.schedule_callback(10, [] {});
  q.run_next();
  q.schedule_callback(10, [] {});  // the popped tick itself: fine
  common::ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(q.schedule_callback(9, [] {}), common::CheckFailure);
  EXPECT_THROW(q.schedule_event(0, EventKind::kPacketDelivery, {}), common::CheckFailure);
  EXPECT_EQ(q.size(), 1u) << "a rejected schedule must leave the queue as it was";
  EXPECT_EQ(q.total_scheduled(), 2u);
}

TEST(EventQueue, CancelReclaimsWheelClosureImmediately) {
  // The wheel-path twin of CancelReclaimsClosureImmediately: a near event
  // lives in a bucket, not the heap, and cancel must still free its capture
  // on the spot — from the head, the middle and the tail of a bucket.
  EventQueue q;
  auto token = std::make_shared<int>(42);
  std::vector<int> order;
  const EventId head = q.schedule_callback(7, [token] { (void)*token; });
  q.schedule_callback(7, [&] { order.push_back(1); });
  const EventId middle = q.schedule_callback(7, [token] { (void)*token; });
  q.schedule_callback(7, [&] { order.push_back(3); });
  const EventId tail = q.schedule_callback(7, [token] { (void)*token; });
  EXPECT_EQ(q.heap_pushes(), 0u);
  EXPECT_EQ(token.use_count(), 4);
  EXPECT_TRUE(q.cancel(middle));
  EXPECT_TRUE(q.cancel(head));
  EXPECT_TRUE(q.cancel(tail));
  EXPECT_EQ(token.use_count(), 1) << "cancelled closures must be destroyed immediately";
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), 7);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  // Emptying the only bucket by cancel leaves an empty wheel.
  const EventId last = q.schedule_callback(9, [token] { (void)*token; });
  EXPECT_TRUE(q.cancel(last));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNever);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, SizeAndEmptyCountWheelAndOverflowEvents) {
  EventQueue q;
  q.set_handler(EventKind::kPacketDelivery, [](const EventPayload&) {});
  for (Tick t = 1; t <= 4; ++t) q.schedule_event(t, EventKind::kPacketDelivery, {});
  q.schedule_callback(3 * kSpan, [] {});
  // Four events in the wheel, one in the heap.
  EXPECT_EQ(q.heap_pushes(), 1u);
  EXPECT_EQ(q.size(), 5u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_time(), 1);
  std::size_t expect = 5;
  while (!q.empty()) {
    q.run_next();
    EXPECT_EQ(q.size(), --expect);
  }
  EXPECT_EQ(expect, 0u);
  EXPECT_EQ(q.next_time(), kNever);
  // A drained queue takes events again, a tick or a span past the last pop.
  q.schedule_event(3 * kSpan, EventKind::kPacketDelivery, {});
  q.schedule_event(4 * kSpan, EventKind::kPacketDelivery, {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.heap_pushes(), 2u);
  EXPECT_EQ(q.run_next(), 3 * kSpan);
  EXPECT_EQ(q.run_next(), 4 * kSpan);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, WheelAndOverflowPartitionSchedules) {
  // heap_pushes() counts exactly the schedules a span or more past the last
  // popped time; every other schedule went to the wheel.
  EventQueue q;
  q.set_handler(EventKind::kPacketDelivery, [](const EventPayload&) {});
  q.schedule_event(0, EventKind::kPacketDelivery, {});              // wheel
  q.schedule_event(kSpan - 1, EventKind::kPacketDelivery, {});      // wheel
  q.schedule_event(kSpan, EventKind::kPacketDelivery, {});          // heap
  q.schedule_callback(10 * kSpan, [] {});                           // heap
  EXPECT_EQ(q.heap_pushes(), 2u);
  EXPECT_EQ(q.run_next(), 0);
  EXPECT_EQ(q.run_next(), kSpan - 1);
  q.schedule_event(2 * kSpan - 2, EventKind::kPacketDelivery, {});  // wheel
  q.schedule_event(2 * kSpan - 1, EventKind::kPacketDelivery, {});  // heap
  EXPECT_EQ(q.heap_pushes(), 3u);

  // The same rule over a long random run, measured against the last pop.
  std::mt19937_64 rng(0xC0FFEE);
  Tick last_pop = q.run_next();
  std::uint64_t expect = q.heap_pushes();
  for (int i = 0; i < 20000; ++i) {
    if (rng() % 3 != 0 || q.empty()) {
      const Tick at = last_pop + static_cast<Tick>(rng() % (3 * kSpan));
      if (at - last_pop >= kSpan) ++expect;
      q.schedule_event(at, EventKind::kPacketDelivery, {});
    } else {
      last_pop = q.run_next();
    }
  }
  EXPECT_EQ(q.heap_pushes(), expect);
  EXPECT_GT(expect, 0u);
  EXPECT_LT(expect, q.total_scheduled());
}

TEST(EventQueue, SlotPoolStaysFlatAcrossWheelWraps) {
  // Steady state must reuse slots while time wraps the wheel thousands of
  // times: each round keeps 12 events in flight, a few of them a span or
  // more ahead, so both the buckets and the heap churn.
  EventQueue q;
  q.set_handler(EventKind::kPacketDelivery, [](const EventPayload&) {});
  constexpr int kSources = 4;
  Tick t = 0;
  auto round = [&] {
    for (int src = 0; src < kSources; ++src)
      for (int i = 0; i < 3; ++i)
        q.schedule_event(t + src * 1500 + i * (kSpan / 2), EventKind::kPacketDelivery, {});
    while (!q.empty()) t = q.run_next();
  };
  round();
  const std::size_t warm_pool = q.pool_capacity();
  const std::uint64_t warm_pushes = q.heap_pushes();
  for (int i = 0; i < 10000; ++i) round();
  EXPECT_GT(t, 1000 * kSpan) << "the run must wrap the wheel many times";
  EXPECT_EQ(q.pool_capacity(), warm_pool);
  EXPECT_GT(q.heap_pushes(), warm_pushes) << "the run never used the overflow heap";
}

}  // namespace
}  // namespace vedr::sim
