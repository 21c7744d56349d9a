// Binomial-tree Broadcast: the non-chain decomposition exercising multi-
// waiter dependencies (§V extensibility).
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "collective/plan.h"
#include "collective/runner.h"
#include "net/host.h"
#include "core/vedrfolnir.h"
#include "net/network.h"
#include "sim/sharded_engine.h"

namespace vedr::collective {
namespace {

std::vector<NodeId> hosts(int n) {
  std::vector<NodeId> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(TreeBroadcast, ShapeFor8) {
  const auto p = CollectivePlan::tree_broadcast(0, hosts(8), 1000);
  EXPECT_EQ(p.op(), OpType::kBroadcast);
  EXPECT_EQ(p.algorithm(), Algorithm::kBinomialTree);
  // Root sends in rounds 0,1,2; rank 1 in rounds 1,2; ranks 2,3 in round 2;
  // ranks 4-7 are leaves.
  EXPECT_EQ(p.steps_of_flow(0).size(), 3u);
  EXPECT_EQ(p.steps_of_flow(1).size(), 2u);
  EXPECT_EQ(p.steps_of_flow(2).size(), 1u);
  EXPECT_EQ(p.steps_of_flow(3).size(), 1u);
  for (int leaf = 4; leaf < 8; ++leaf) EXPECT_TRUE(p.steps_of_flow(leaf).empty());
  EXPECT_EQ(p.total_transfers(), 7);  // P-1 transfers deliver to everyone
}

TEST(TreeBroadcast, EveryRankReceivesExactlyOnce) {
  for (int n : {2, 3, 5, 8, 16}) {
    const auto p = CollectivePlan::tree_broadcast(0, hosts(n), 1000);
    std::set<NodeId> receivers;
    for (int f = 0; f < p.num_flows(); ++f)
      for (const auto& s : p.steps_of_flow(f)) EXPECT_TRUE(receivers.insert(s.dst).second);
    EXPECT_EQ(receivers.size(), static_cast<std::size_t>(n - 1));
    EXPECT_EQ(receivers.count(0), 0u) << "root never receives";
  }
}

TEST(TreeBroadcast, NonRootSendsDependOnParentDelivery) {
  const auto p = CollectivePlan::tree_broadcast(0, hosts(8), 1000);
  for (int f = 1; f < 8; ++f) {
    for (const auto& s : p.steps_of_flow(f)) {
      ASSERT_TRUE(s.has_dependency());
      // The dependency transfer must target this flow's origin.
      const StepSpec& dep = p.step(s.dep_flow, s.dep_step);
      EXPECT_EQ(dep.dst, s.src);
    }
  }
  // Root's sends have no dependency.
  for (const auto& s : p.steps_of_flow(0)) EXPECT_FALSE(s.has_dependency());
}

TEST(TreeBroadcast, OneTransferUnblocksMultipleSends) {
  const auto p = CollectivePlan::tree_broadcast(0, hosts(8), 1000);
  // Root's round-0 send (to rank 1) unblocks BOTH of rank 1's sends.
  const auto& deps = p.dependents_of(0, 0);
  ASSERT_EQ(deps.size(), 2u);
  for (const auto& [flow, step] : deps) EXPECT_EQ(flow, 1);
}

TEST(TreeBroadcast, RunsOnFabricAndCompletes) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);
  const auto all = network.topology().hosts();
  std::vector<NodeId> participants(all.begin(), all.begin() + 8);
  auto plan = CollectivePlan::tree_broadcast(0, participants, 1024 * 1024);
  CollectiveRunner runner(network, std::move(plan));
  runner.start(0);
  sim.run(10 * sim::kSecond);
  ASSERT_TRUE(runner.done());
  // Dependency gating held: every non-root send started after its parent's
  // delivery.
  for (int f = 0; f < runner.plan().num_flows(); ++f) {
    for (const auto& s : runner.plan().steps_of_flow(f)) {
      const auto& r = runner.record(f, s.step);
      if (s.has_dependency()) {
        EXPECT_NE(r.dep_ready_time, sim::kNever);
        EXPECT_GE(r.start_time, r.dep_ready_time);
      }
    }
  }
}

TEST(TreeBroadcast, VedrfolnirMonitorsItEndToEnd) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);
  const auto all = network.topology().hosts();
  std::vector<NodeId> participants(all.begin(), all.begin() + 8);
  auto plan = CollectivePlan::tree_broadcast(0, participants, 2 * 1024 * 1024);
  CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);

  const net::FlowKey bg{all[12], participants[1], 100, 200};
  network.host(participants[1]).expect_flow(bg, 16 * 1024 * 1024);
  sim.schedule_at(0, [&network, &all, bg] {
    network.host(all[12]).start_flow(bg, 16 * 1024 * 1024);
  });

  runner.start(0);
  sim.run(10 * sim::kSecond);
  ASSERT_TRUE(runner.done());
  const auto diag = vedr.diagnose();
  EXPECT_TRUE(diag.detects_flow(bg)) << diag.summary();
  EXPECT_FALSE(diag.critical_path.empty());
}

TEST(TreeBroadcast, RejectsTooFew) {
  EXPECT_THROW(CollectivePlan::tree_broadcast(0, hosts(1), 100), std::invalid_argument);
}

}  // namespace
}  // namespace vedr::collective
