// Steady-state allocation audit: once the engine's pools (event slots,
// packet slab, ring queues, telemetry maps) have grown to a workload's
// high-water mark, continuing that workload must perform ZERO heap
// allocations. Verified by overriding global operator new/delete with
// counting wrappers and running a congestion-heavy DCQCN scenario — data
// flows, ECN marking, CNPs, rate timers — through a warm-up phase and then a
// measured window.
//
// Under sanitizers the interposed allocator changes what "an allocation" is
// (ASan's quarantine, TSan's shadow) and the engine deliberately trades this
// guarantee away; the assertion is skipped there but the scenario still runs.
#include <gtest/gtest.h>

#include "collective/plan.h"
#include "collective/runner.h"
#include "counting_allocator.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/sharded_engine.h"

namespace vedr {
namespace {

TEST(SteadyStateAlloc, CongestedDcqcnWorkloadAllocatesNothing) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  // A 2-tier fat-tree with an incast-prone ring AllGather: enough ECN
  // marking and CNP traffic to keep every hot path (host tx, switch queues,
  // PFC accounting, DCQCN timers, ACK/CNP control packets) exercised.
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);

  const auto hosts = network.hosts();
  ASSERT_GE(hosts.size(), 8u);

  // Ring AllGather over 8 participants; repeated steps give the run a long
  // steady phase after the first few steps have warmed every pool.
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 8);
  collective::CollectivePlan plan = collective::CollectivePlan::ring(
      0, collective::OpType::kAllGather, participants, 64 << 20);
  collective::CollectiveRunner runner(network, std::move(plan));
  runner.start(0);

  // Warm-up: run the first stretch, letting pools/rings/maps reach their
  // high-water marks.
  sim.run(2 * sim::kMillisecond);
  ASSERT_FALSE(sim.idle()) << "warm-up consumed the whole collective; shrink the window";

  // Measured window: steady-state forwarding must not allocate.
  g_allocs.store(0);
  g_counting.store(true);
  const std::uint64_t executed_before = sim.events_executed();
  sim.run(4 * sim::kMillisecond);
  g_counting.store(false);
  const std::uint64_t executed = sim.events_executed() - executed_before;

  ASSERT_GT(executed, 10'000u) << "window too small to call this steady state";
  if (kSanitized) {
    GTEST_SKIP() << "allocation counting is not meaningful under sanitizers";
  }
  EXPECT_EQ(g_allocs.load(), 0u)
      << "steady-state hot path allocated (" << g_allocs.load() << " allocations over "
      << executed << " events)";
}

}  // namespace
}  // namespace vedr
