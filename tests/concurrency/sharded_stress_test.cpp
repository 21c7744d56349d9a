// Sharded-engine stress lane. Runs in every build, but its purpose is the
// VEDR_SANITIZE=thread configuration: CI's TSan job runs this binary with
// --gtest_filter='Sharded*' to prove the window protocol, the handoff
// rings, and the per-domain packet pools are race-free under real
// multi-worker interleavings. Keep every test name prefixed "Sharded".

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "collective/runner.h"
#include "common/spsc_ring.h"
#include "eval/experiment.h"
#include "net/network.h"
#include "net/routing.h"
#include "sim/shard.h"
#include "sim/shard_report.h"
#include "sim/sharded_engine.h"

namespace vedr {
namespace {

TEST(ShardedStress, SpscRingProducerConsumerTorture) {
  // Tiny capacity on purpose: force constant wrap-around and heavy use of
  // the mutex spill path while a consumer drains concurrently. Strict FIFO
  // across the ring/spill boundary is only promised at quiesce points (the
  // engine drains at window barriers); under concurrent drain the contract
  // is weaker and is what we assert: nothing lost, nothing duplicated.
  common::SpscRing<std::uint64_t> ring(8);
  constexpr std::uint64_t kItems = 200000;

  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kItems; ++i) ring.push(i);
  });

  std::vector<std::uint64_t> got;
  got.reserve(kItems);
  while (got.size() < kItems) ring.drain_into(got);
  producer.join();
  ring.drain_into(got);

  EXPECT_TRUE(ring.empty());
  ASSERT_EQ(got.size(), kItems);
  std::sort(got.begin(), got.end());
  for (std::uint64_t i = 0; i < kItems; ++i)
    ASSERT_EQ(got[static_cast<std::size_t>(i)], i) << "ring lost or duplicated an element";
}

TEST(ShardedStress, SpscRingFifoAtQuiescePoints) {
  // The engine's actual cadence: the producer pushes a burst (overflowing
  // into the spill list), a barrier quiesces it, then the consumer drains —
  // and must see exact push order every window.
  common::SpscRing<int> ring(8);
  int next = 0;
  for (int window = 0; window < 200; ++window) {
    std::thread producer([&ring, base = next] {
      for (int i = 0; i < 37; ++i) ring.push(base + i);
    });
    producer.join();  // the window barrier
    std::vector<int> batch;
    ring.drain_into(batch);
    ASSERT_EQ(batch.size(), 37u);
    for (const int v : batch) ASSERT_EQ(v, next++) << "quiesced drain broke FIFO order";
  }
}

TEST(ShardedStress, HandedOffPacketsReturnEverySlot) {
  // A ring AllGather over every host of a K=4 fat-tree crosses pods, so its
  // packets ride the agg<->core handoffs by value: the sender frees its slot
  // at once and the receiver acquires one when it drains. Run on 4 workers
  // until the engine drains; then no domain's pool may hold a packet.
  const net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  const net::ShardPlan plan = net::ShardPlan::for_topology(topo);
  ASSERT_GT(plan.num_domains, 4);
  sim::ShardedEngine engine(plan.num_domains, plan.lookahead, /*num_workers=*/4);
  net::Network network(engine, plan, topo, cfg);
  collective::CollectiveRunner runner(
      network, collective::CollectivePlan::ring(0, collective::OpType::kAllGather,
                                                network.hosts(), 256 * 1024));
  runner.start(0);
  engine.run();
  ASSERT_TRUE(runner.done());

  sim::ShardReport report;
  network.fill_shard_report(report);
  std::uint64_t handoffs = 0;
  for (const auto& lane : report.lanes) handoffs += lane.pushed;
  EXPECT_GT(handoffs, 0u);
  for (int d = 0; d < network.num_domains(); ++d) {
    sim::ShardScope scope(d);
    EXPECT_EQ(network.pool().in_use(), 0u) << "domain " << d << " leaked a packet slot";
  }
}

TEST(ShardedStress, EngineHookAndWindowProtocol) {
  // Hammer the two-barrier window loop itself: many domains, few events per
  // window, hooks touching per-domain state — the shape where a missing
  // happens-before edge between flush (window N) and drain (window N+1)
  // would race.
  constexpr int kDomains = 6;
  sim::ShardedEngine engine(kDomains, /*lookahead=*/3, /*num_workers=*/kDomains);
  std::vector<std::uint64_t> per_domain_hook_runs(kDomains, 0);
  engine.set_drain_hook([&](int d) { ++per_domain_hook_runs[static_cast<std::size_t>(d)]; });

  constexpr int kEvents = 200;
  std::atomic<std::uint64_t> fired{0};
  for (int d = 0; d < kDomains; ++d) {
    sim::Simulator& sim = engine.domain(d);
    for (int i = 0; i < kEvents; ++i)
      sim.schedule_at(i * 2 + d % 2, [&fired] { fired.fetch_add(1, std::memory_order_relaxed); });
  }

  engine.run(1000);
  EXPECT_EQ(fired.load(), static_cast<std::uint64_t>(kDomains) * kEvents);
  for (int d = 0; d < kDomains; ++d) EXPECT_GT(per_domain_hook_runs[static_cast<std::size_t>(d)], 0u);
}

TEST(ShardedStress, FullCaseBackpressureSharded) {
  // End to end under maximum workers: the real fabric, collective, PFC
  // backpressure injection, per-domain telemetry, buffered diagnosis
  // ingestion — the complete surface the TSan lane exists to certify.
  eval::RunConfig cfg;
  cfg.shards = 8;
  eval::ScenarioParams params;
  params.scale = 1.0 / 256.0;
  const net::Topology topo = net::make_fat_tree(4, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  const auto spec =
      eval::make_scenario(eval::ScenarioType::kPfcBackpressure, 0, topo, routing, params);

  const auto first = eval::run_case(spec, eval::SystemKind::kVedrfolnir, cfg);
  const auto second = eval::run_case(spec, eval::SystemKind::kVedrfolnir, cfg);
  EXPECT_EQ(first.sim_events, second.sim_events);
  EXPECT_EQ(first.packets_delivered, second.packets_delivered);
  EXPECT_EQ(first.cc_time, second.cc_time);
  EXPECT_STREQ(first.outcome.label(), second.outcome.label());
}

TEST(ShardedStress, BaselinesShareTheShardedIngestPath) {
  // Hawkeye-MinR (per-host trigger slots, the retention filter over the
  // merged stream) and Full Polling (one sweep per domain) on more workers
  // than the fabric has domains.
  eval::RunConfig cfg;
  cfg.shards = 8;
  eval::ScenarioParams params;
  params.scale = 1.0 / 256.0;
  const net::Topology topo = net::make_fat_tree(4, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  const auto spec =
      eval::make_scenario(eval::ScenarioType::kPfcStorm, 0, topo, routing, params);
  for (const auto system : {eval::SystemKind::kHawkeyeMinR, eval::SystemKind::kFullPolling}) {
    const std::uint64_t first = eval::run_case_digest(spec, system, cfg);
    EXPECT_EQ(first, eval::run_case_digest(spec, system, cfg)) << eval::to_string(system);
  }
}

}  // namespace
}  // namespace vedr
