#include "sim/sharded_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "common/spsc_ring.h"
#include "sim/shard.h"

namespace vedr::sim {
namespace {

TEST(ShardedEngine, ClampsWorkersToDomains) {
  ShardedEngine engine(3, /*lookahead=*/10, /*num_workers=*/16);
  EXPECT_EQ(engine.num_domains(), 3);
  EXPECT_EQ(engine.num_workers(), 3);

  ShardedEngine floor(2, 10, 0);
  EXPECT_EQ(floor.num_workers(), 1);
}

TEST(ShardedEngine, SingleDomainExecutesInTimeOrder) {
  ShardedEngine engine(1, /*lookahead=*/5, /*num_workers=*/1);
  std::vector<Tick> fired;
  Simulator& sim = engine.domain(0);
  sim.schedule_at(30, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(10, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(20, [&] { fired.push_back(sim.now()); });

  const std::uint64_t n = engine.run(100);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(fired, (std::vector<Tick>{10, 20, 30}));
  EXPECT_EQ(engine.events_executed(), 3u);
}

TEST(ShardedEngine, OneDomainUnboundedMatchesBareSimulator) {
  // The serial lane: one domain, unbounded lookahead, run to the end of time.
  // It must execute exactly what a bare Simulator::run does, in the same
  // (time, seq) order — same-time ties included — as one window, and its
  // window arithmetic must not overflow at kForever.
  struct Log {
    std::vector<std::pair<Tick, int>> fired;
  };
  const auto seed = [](Simulator& sim, Log& log) {
    for (int i = 0; i < 6; ++i) {
      const Tick at = (i % 3) * 100;  // three ties per time
      sim.schedule_at(at, [&sim, &log, i] {
        log.fired.emplace_back(sim.now(), i);
        // Chains scheduled mid-run, some landing on an existing tie.
        if (i < 3)
          sim.schedule_in(100, [&sim, &log, i] { log.fired.emplace_back(sim.now(), 10 + i); });
      });
    }
    sim.schedule_at(kForever, [&sim, &log] { log.fired.emplace_back(sim.now(), 99); });
  };

  Simulator bare;
  Log bare_log;
  seed(bare, bare_log);
  const std::uint64_t bare_n = bare.run();

  ShardedEngine engine;
  EXPECT_EQ(engine.num_domains(), 1);
  EXPECT_EQ(engine.lookahead(), kForever);
  Log engine_log;
  seed(engine.domain(0), engine_log);
  const std::uint64_t engine_n = engine.run();

  EXPECT_EQ(engine_n, bare_n);
  EXPECT_EQ(engine_log.fired, bare_log.fired);
  EXPECT_EQ(engine_log.fired.back(), (std::pair<Tick, int>{kForever, 99}));
  EXPECT_EQ(engine.windows(), 1u);
}

TEST(ShardedEngine, UntilBoundIsInclusive) {
  // Matches Simulator::run(until): an event AT the bound executes, one past
  // it stays queued.
  ShardedEngine engine(2, /*lookahead=*/4, /*num_workers=*/2);
  int at_bound = 0, past_bound = 0;
  engine.domain(0).schedule_at(50, [&] { ++at_bound; });
  engine.domain(1).schedule_at(51, [&] { ++past_bound; });

  engine.run(50);
  EXPECT_EQ(at_bound, 1);
  EXPECT_EQ(past_bound, 0);

  engine.run(51);
  EXPECT_EQ(past_bound, 1);
}

TEST(ShardedEngine, RunReturnsZeroWhenDrained) {
  ShardedEngine engine(2, 10, 2);
  engine.domain(0).schedule_at(1, [] {});
  EXPECT_EQ(engine.run(100), 1u);
  EXPECT_EQ(engine.run(1000), 0u);
}

TEST(ShardedEngine, WindowsTrackSparseEventTimes) {
  // Two event clusters 1000 ticks apart with lookahead 10: the engine must
  // jump between clusters (windows start at the global minimum next event),
  // not grind through a thousand empty windows.
  ShardedEngine engine(2, /*lookahead=*/10, /*num_workers=*/2);
  std::atomic<int> fired{0};  // bumped from two worker threads
  engine.domain(0).schedule_at(0, [&] { ++fired; });
  engine.domain(1).schedule_at(3, [&] { ++fired; });
  engine.domain(0).schedule_at(1000, [&] { ++fired; });
  engine.domain(1).schedule_at(1003, [&] { ++fired; });

  engine.run(2000);
  EXPECT_EQ(fired.load(), 4);
  EXPECT_LE(engine.windows(), 4u);
  EXPECT_GE(engine.windows(), 2u);
}

TEST(ShardedEngine, HooksRunUnderTheDomainsShardScope) {
  ShardedEngine engine(3, 10, 2);
  std::mutex mu;
  std::vector<std::pair<int, int>> drained;  // (hook arg, tls domain)
  engine.set_drain_hook([&](int d) {
    std::lock_guard<std::mutex> lock(mu);
    drained.emplace_back(d, current_domain());
  });
  for (int d = 0; d < 3; ++d) engine.domain(d).schedule_at(d, [] {});

  engine.run(100);
  ASSERT_FALSE(drained.empty());
  bool saw[3] = {false, false, false};
  for (const auto& [arg, tls] : drained) {
    EXPECT_EQ(arg, tls) << "drain hook ran outside its domain's ShardScope";
    saw[arg] = true;
  }
  EXPECT_TRUE(saw[0] && saw[1] && saw[2]);
}

TEST(ShardedEngine, CrossDomainHandoffLandsAfterTheWindow) {
  // The conservative contract end to end: domain 0 produces a message at
  // t=5 with delivery delay == lookahead; domain 1's drain hook merges it
  // at the next window boundary and it executes exactly at its arrival
  // time — the engine never lets a window overrun an inbound handoff.
  constexpr Tick kLookahead = 10;
  ShardedEngine engine(2, kLookahead, 2);
  common::SpscRing<Tick> lane(16);
  std::vector<Tick> delivered;

  engine.domain(0).schedule_at(5, [&] { lane.push(engine.domain(0).now() + kLookahead); });
  engine.set_drain_hook([&](int d) {
    if (d != 1) return;
    std::vector<Tick> arrivals;
    lane.drain_into(arrivals);
    for (const Tick at : arrivals)
      engine.domain(1).schedule_at(at, [&] { delivered.push_back(engine.domain(1).now()); });
  });

  engine.run(1000);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], 15);
  EXPECT_EQ(engine.events_executed(), 2u);
}

}  // namespace
}  // namespace vedr::sim
