#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <memory>
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

// --- per-link FIFO delivery lanes ----------------------------------------

TEST(EventQueue, LaneEventsKeepGlobalTimeAndScheduleOrder) {
  // Lane events share the sequence counter with the other paths, so the
  // (time, seq) order spans lanes, typed events and callbacks alike.
  EventQueue q;
  static std::vector<int>* order_sink = nullptr;
  std::vector<int> order;
  order_sink = &order;
  q.set_handler(EventKind::kPacketDelivery,
                [](const EventPayload& p) { order_sink->push_back(static_cast<int>(p.a)); });
  q.set_lanes(2);
  q.schedule_lane_event(0, 5, EventKind::kPacketDelivery, {nullptr, 0, 0});
  q.schedule_lane_event(1, 3, EventKind::kPacketDelivery, {nullptr, 1, 0});
  q.schedule_callback(5, [&] { order.push_back(2); });
  q.schedule_lane_event(0, 5, EventKind::kPacketDelivery, {nullptr, 3, 0});
  q.schedule_lane_event(0, 9, EventKind::kPacketDelivery, {nullptr, 4, 0});
  q.schedule_lane_event(1, 4, EventKind::kPacketDelivery, {nullptr, 5, 0});
  std::vector<Tick> times;
  while (!q.empty()) times.push_back(q.run_next());
  EXPECT_EQ(order, (std::vector<int>{1, 5, 0, 2, 3, 4}));
  EXPECT_EQ(times, (std::vector<Tick>{3, 4, 5, 5, 5, 9}));
}

TEST(EventQueue, LaneOutOfOrderScheduleFiresCheck) {
  EventQueue q;
  q.set_lanes(1);
  q.schedule_lane_event(0, 10, EventKind::kPacketDelivery, {});
  q.schedule_lane_event(0, 10, EventKind::kPacketDelivery, {});  // equal time: fine
  common::ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(q.schedule_lane_event(0, 9, EventKind::kPacketDelivery, {}),
               common::CheckFailure);
  EXPECT_EQ(q.size(), 2u) << "a rejected schedule must leave the queue as it was";
}

TEST(EventQueue, LaneOutOfRangeFiresCheck) {
  EventQueue q;
  q.set_lanes(2);
  common::ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(q.schedule_lane_event(2, 1, EventKind::kPacketDelivery, {}),
               common::CheckFailure);
}

TEST(EventQueue, CancellingALaneEventFiresCheck) {
  // Both the lane head (in the heap) and an event waiting behind it.
  EventQueue q;
  q.set_lanes(1);
  const EventId head = q.schedule_lane_event(0, 1, EventKind::kPacketDelivery, {});
  const EventId behind = q.schedule_lane_event(0, 2, EventKind::kPacketDelivery, {});
  common::ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(q.cancel(head), common::CheckFailure);
  EXPECT_THROW(q.cancel(behind), common::CheckFailure);
  EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueue, SizeAndEmptyCountEventsHeldInLanes) {
  EventQueue q;
  q.set_handler(EventKind::kPacketDelivery, [](const EventPayload&) {});
  q.set_lanes(3);
  for (Tick t = 1; t <= 4; ++t) q.schedule_lane_event(1, t, EventKind::kPacketDelivery, {});
  q.schedule_callback(2, [] {});
  // One lane head and the callback are in the heap; three events wait.
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
  // A drained lane takes events again, in the heap at first.
  q.schedule_lane_event(1, 7, EventKind::kPacketDelivery, {});
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.run_next(), 7);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, HeapPushesAndLaneAppendsPartitionSchedules) {
  EventQueue q;
  q.set_handler(EventKind::kPacketDelivery, [](const EventPayload&) {});
  q.set_lanes(2);
  q.schedule_lane_event(0, 1, EventKind::kPacketDelivery, {});  // head: pushed
  q.schedule_lane_event(0, 2, EventKind::kPacketDelivery, {});  // appended
  q.schedule_lane_event(0, 3, EventKind::kPacketDelivery, {});  // appended
  q.schedule_lane_event(1, 1, EventKind::kPacketDelivery, {});  // head: pushed
  q.schedule_callback(4, [] {});                                // pushed
  EXPECT_EQ(q.heap_pushes(), 3u);
  EXPECT_EQ(q.lane_appends(), 2u);
  while (!q.empty()) q.run_next();
  // Refilling the root from a lane is a sift-down, not a push.
  EXPECT_EQ(q.heap_pushes(), 3u);
  EXPECT_EQ(q.heap_pushes() + q.lane_appends(), q.total_scheduled());
}

TEST(EventQueue, LaneRingsStopGrowingUnderChurn) {
  // Steady state must reuse ring slots: with at most 3 events outstanding
  // per lane, the rings never grow past their warm-up size however many
  // events flow.
  EventQueue q;
  q.set_handler(EventKind::kPacketDelivery, [](const EventPayload&) {});
  constexpr std::uint32_t kLanes = 4;
  q.set_lanes(kLanes);
  Tick t = 0;
  auto round = [&] {
    for (std::uint32_t l = 0; l < kLanes; ++l)
      for (int i = 0; i < 3; ++i)
        q.schedule_lane_event(l, t + i, EventKind::kPacketDelivery, {});
    while (!q.empty()) q.run_next();
    t += 3;
  };
  round();
  const std::size_t warm_lanes = q.lane_capacity();
  const std::size_t warm_pool = q.pool_capacity();
  EXPECT_GT(warm_lanes, 0u);
  for (int i = 0; i < 10000; ++i) round();
  EXPECT_EQ(q.lane_capacity(), warm_lanes);
  EXPECT_EQ(q.pool_capacity(), warm_pool);
}

}  // namespace
}  // namespace vedr::sim
