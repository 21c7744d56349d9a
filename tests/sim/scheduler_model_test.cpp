// Randomized model check of the typed-event engine against a naive reference
// scheduler: thousands of interleaved schedule/cancel/pop operations, driven
// by a seeded RNG, must produce the identical firing sequence (time AND
// schedule order) and identical size() at every step — for near events in
// the timing wheel, bursts of same-tick events, and delays that straddle
// the wheel's span into the overflow heap. The reference is a plain sorted
// vector — too slow to ship, trivially correct.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "sim/event_queue.h"

namespace vedr::sim {
namespace {

/// The obviously-correct scheduler: a flat list, linear-scan removal, full
/// stable sort on (time, seq) at every pop.
class ReferenceQueue {
 public:
  std::uint64_t schedule(Tick at) {
    items_.push_back({at, next_seq_});
    return next_seq_++;
  }

  bool cancel(std::uint64_t seq) {
    auto it = std::find_if(items_.begin(), items_.end(),
                           [seq](const Item& x) { return x.seq == seq; });
    if (it == items_.end()) return false;
    items_.erase(it);
    return true;
  }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

  /// Pops the earliest (time, seq) item and returns its seq.
  std::uint64_t pop() {
    auto it = std::min_element(items_.begin(), items_.end(), [](const Item& a, const Item& b) {
      return a.at != b.at ? a.at < b.at : a.seq < b.seq;
    });
    const std::uint64_t seq = it->seq;
    items_.erase(it);
    return seq;
  }

 private:
  struct Item {
    Tick at;
    std::uint64_t seq;
  };
  std::vector<Item> items_;
  std::uint64_t next_seq_ = 0;
};

struct LiveEvent {
  EventId id;         ///< engine handle
  std::uint64_t seq;  ///< reference handle (also its identity in `fired`)
};

/// Draws how far past the last pop a schedule lands; empty: within 64 ns.
using DelayFn = std::function<Tick(std::mt19937_64& rng, Tick clock)>;

/// Drives `ops` random operations through the engine and the reference. The
/// engine's heap_pushes() must count exactly the schedules that landed a
/// wheel span or more past the last pop; `overflow` (when set) receives it.
void run_model_check(std::uint64_t seed, int ops, const DelayFn& delay = {},
                     std::uint64_t* overflow = nullptr) {
  std::mt19937_64 rng(seed);
  EventQueue q;
  ReferenceQueue ref;

  // Fired events append their reference-seq here; the engine must reproduce
  // the reference pop order exactly.
  std::vector<std::uint64_t> fired;
  static std::vector<std::uint64_t>* fired_sink = nullptr;
  fired_sink = &fired;
  q.set_handler(EventKind::kStepPoll,
                [](const EventPayload& p) { fired_sink->push_back(p.a); });

  std::vector<LiveEvent> live;
  Tick clock = 0;  // times never scheduled before the last pop: keeps the run causal
  std::uint64_t far = 0;

  for (int op = 0; op < ops; ++op) {
    const int dice = static_cast<int>(rng() % 100);
    if (dice < 50 || live.empty()) {
      // Schedule (half typed, half callback — both share the seq counter).
      const Tick at = clock + (delay ? delay(rng, clock) : static_cast<Tick>(rng() % 64));
      if (at - clock >= EventQueue::kWheelSpan) ++far;
      const std::uint64_t seq = ref.schedule(at);
      EventId id;
      if (rng() % 2 == 0) {
        id = q.schedule_event(at, EventKind::kStepPoll, {nullptr, seq, 0});
      } else {
        id = q.schedule_callback(at, [seq] { fired_sink->push_back(seq); });
      }
      live.push_back({id, seq});
    } else if (dice < 75) {
      // Cancel a random live event.
      const std::size_t pick = rng() % live.size();
      const LiveEvent ev = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_TRUE(q.cancel(ev.id));
      EXPECT_TRUE(ref.cancel(ev.seq));
      EXPECT_FALSE(q.cancel(ev.id)) << "double cancel must fail";
    } else if (!ref.empty()) {
      // Pop: both queues must fire the same event.
      const Tick at = q.next_time();
      const std::size_t before = fired.size();
      const Tick ran_at = q.run_next();
      EXPECT_EQ(ran_at, at);
      clock = ran_at;
      const std::uint64_t expect_seq = ref.pop();
      ASSERT_EQ(fired.size(), before + 1);
      EXPECT_EQ(fired.back(), expect_seq)
          << "engine and reference popped different events at t=" << ran_at;
      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](const LiveEvent& e) { return e.seq == expect_seq; }),
                 live.end());
    }
    ASSERT_EQ(q.size(), ref.size()) << "live-event count diverged after op " << op;
    ASSERT_EQ(q.empty(), ref.empty());
  }

  // Drain: remaining events must come out in identical order.
  while (!ref.empty()) {
    const std::size_t before = fired.size();
    q.run_next();
    ASSERT_EQ(fired.size(), before + 1);
    EXPECT_EQ(fired.back(), ref.pop());
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.heap_pushes(), far) << "schedules filed on the wrong side of the wheel span";
  if (overflow != nullptr) *overflow = far;
}

/// The same model check with bursts of same-tick events mixed in, as a
/// window's drained handoffs or a switch's fan-out produce them: each burst
/// puts up to 16 events on one tick (often the current one), interleaved
/// with single schedules, cancels of any live event and pops.
void run_burst_model_check(std::uint64_t seed, int ops) {
  std::mt19937_64 rng(seed);
  EventQueue q;
  ReferenceQueue ref;

  std::vector<std::uint64_t> fired;
  static std::vector<std::uint64_t>* fired_sink = nullptr;
  fired_sink = &fired;
  q.set_handler(EventKind::kPacketDelivery,
                [](const EventPayload& p) { fired_sink->push_back(p.a); });

  std::vector<LiveEvent> live;
  Tick clock = 0;
  int largest_burst = 0;

  for (int op = 0; op < ops; ++op) {
    const int dice = static_cast<int>(rng() % 100);
    if (dice < 8) {
      const Tick at = clock + static_cast<Tick>(rng() % 4);
      const int n = 1 + static_cast<int>(rng() % 16);
      for (int i = 0; i < n; ++i) {
        const std::uint64_t seq = ref.schedule(at);
        live.push_back(
            {q.schedule_event(at, EventKind::kPacketDelivery, {nullptr, seq, 0}), seq});
      }
      largest_burst = std::max(largest_burst, n);
    } else if (dice < 30 || ref.empty()) {
      const Tick at = clock + static_cast<Tick>(rng() % 64);
      const std::uint64_t seq = ref.schedule(at);
      live.push_back({q.schedule_callback(at, [seq] { fired_sink->push_back(seq); }), seq});
    } else if (dice < 45 && !live.empty()) {
      const std::size_t pick = rng() % live.size();
      const LiveEvent ev = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_TRUE(q.cancel(ev.id));
      EXPECT_TRUE(ref.cancel(ev.seq));
    } else {
      const Tick at = q.next_time();
      const std::size_t before = fired.size();
      const Tick ran_at = q.run_next();
      EXPECT_EQ(ran_at, at);
      clock = ran_at;
      const std::uint64_t expect_seq = ref.pop();
      ASSERT_EQ(fired.size(), before + 1);
      ASSERT_EQ(fired.back(), expect_seq)
          << "engine and reference popped different events at t=" << ran_at;
      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](const LiveEvent& e) { return e.seq == expect_seq; }),
                 live.end());
    }
    ASSERT_EQ(q.size(), ref.size()) << "live-event count diverged after op " << op;
    ASSERT_EQ(q.empty(), ref.empty());
  }

  while (!ref.empty()) {
    const std::size_t before = fired.size();
    q.run_next();
    ASSERT_EQ(fired.size(), before + 1);
    ASSERT_EQ(fired.back(), ref.pop());
    ASSERT_EQ(q.size(), ref.size());
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GE(largest_burst, 8) << "the run never stacked a burst on one tick";
}

TEST(SchedulerModelCheck, ThousandsOfInterleavedOpsMatchReference) {
  run_model_check(/*seed=*/0x5EEDBA5E, /*ops=*/4000);
}

TEST(SchedulerModelCheck, MultipleSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_model_check(seed * 7919, 1500);
}

TEST(SchedulerModelCheck, SameTickBurstsMatchReference) {
  run_burst_model_check(/*seed=*/0x1A4E5, /*ops=*/4000);
}

TEST(SchedulerModelCheck, SameTickBurstsMatchReferenceOverSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_burst_model_check(seed * 104729, 1500);
}

TEST(SchedulerModelCheck, DelaysStraddlingTheWheelSpanMatchReference) {
  // One schedule in three lands up to 20,000 ns ahead, mostly past the
  // wheel's span into the overflow heap. One in six re-uses a tick that an
  // earlier schedule sent to the heap; once the clock has moved within a
  // span of it, the re-use joins the wheel, so one tick holds events in both.
  std::uint64_t overflow = 0;
  std::uint64_t ties = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    std::vector<Tick> far_ticks;
    const DelayFn straddling = [&](std::mt19937_64& rng, Tick clock) -> Tick {
      const auto pick = rng() % 6;
      if (pick < 2) {
        const auto d = static_cast<Tick>(rng() % 20'001);
        if (d >= EventQueue::kWheelSpan) far_ticks.push_back(clock + d);
        return d;
      }
      if (pick == 2 && !far_ticks.empty()) {
        const Tick t = far_ticks[rng() % far_ticks.size()];
        if (t >= clock) {
          if (t - clock < EventQueue::kWheelSpan) ++ties;
          return t - clock;
        }
      }
      return static_cast<Tick>(rng() % 64);
    };
    std::uint64_t n = 0;
    run_model_check(seed * 0x9E3779B97F4A7C15ull, 20'000, straddling, &n);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
    overflow += n;
  }
  EXPECT_GT(overflow, 10'000u);
  EXPECT_GT(ties, 1'000u) << "no tick held events in both the wheel and the heap";
}

TEST(SchedulerModelCheck, SameSeedSameFiringOrder) {
  // Determinism: two engines fed the identical operation stream produce the
  // identical firing sequence.
  auto trace = [](std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    EventQueue q;
    static std::vector<std::uint64_t>* sink = nullptr;
    std::vector<std::uint64_t> fired;
    sink = &fired;
    q.set_handler(EventKind::kPollSweep,
                  [](const EventPayload& p) { sink->push_back(p.a); });
    std::vector<EventId> ids;
    for (std::uint64_t i = 0; i < 2000; ++i) {
      const Tick at = static_cast<Tick>(rng() % 97);
      ids.push_back(q.schedule_event(at, EventKind::kPollSweep, {nullptr, i, 0}));
      if (i % 5 == 3) q.cancel(ids[rng() % ids.size()]);
    }
    while (!q.empty()) q.run_next();
    return fired;
  };
  EXPECT_EQ(trace(12345), trace(12345));
  EXPECT_NE(trace(12345), trace(54321));  // sanity: the trace depends on the seed
}

}  // namespace
}  // namespace vedr::sim
