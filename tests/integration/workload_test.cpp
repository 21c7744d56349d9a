// Training-loop style usage: a schedule of collectives running back to
// back on one fabric, each with its own Vedrfolnir instance, plus the
// workload generator's distribution properties.
#include <gtest/gtest.h>

#include <cmath>

#include "anomaly/injectors.h"
#include "collective/runner.h"
#include "core/vedrfolnir.h"
#include "eval/workload.h"
#include "net/network.h"
#include "sim/sharded_engine.h"

namespace vedr {
namespace {

TEST(Workload, DeterministicAndDistributed) {
  const auto a = eval::make_workload(500, 42);
  const auto b = eval::make_workload(500, 42);
  ASSERT_EQ(a.size(), 500u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].gap_after, b[i].gap_after);
  }
  // ~97% AllReduce/AllGather (§IV-A).
  int ar_ag = 0;
  for (const auto& op : a)
    if (op.op == collective::OpType::kAllReduce || op.op == collective::OpType::kAllGather)
      ++ar_ag;
  EXPECT_GT(ar_ag, 450);
  EXPECT_LT(ar_ag, 500);
}

TEST(Workload, SequentialCollectivesOnOneFabric) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);
  const auto hosts = network.topology().hosts();
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 8);

  const auto schedule = eval::make_workload(3, 7, [] {
    eval::WorkloadParams p;
    p.scale = 1.0 / 512.0;
    return p;
  }());

  sim::Tick at = 0;
  std::vector<std::unique_ptr<collective::CollectiveRunner>> runners;
  // Distinct collective ids keep the telemetry flows of consecutive ops
  // apart even on one fabric.
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    auto plan = schedule[i].op == collective::OpType::kAllReduce
                    ? collective::CollectivePlan::ring(static_cast<int>(i),
                                                       collective::OpType::kAllReduce,
                                                       participants, schedule[i].bytes_per_step)
                    : collective::CollectivePlan::ring(static_cast<int>(i), schedule[i].op,
                                                       participants, schedule[i].bytes_per_step);
    runners.push_back(
        std::make_unique<collective::CollectiveRunner>(network, std::move(plan)));
    runners.back()->start(at);
    at += 20 * sim::kMillisecond + schedule[i].gap_after;
  }
  sim.run(5 * sim::kSecond);
  for (const auto& r : runners) EXPECT_TRUE(r->done());
}

TEST(Workload, KeysOfDistinctCollectivesNeverCollide) {
  const std::vector<net::NodeId> parts{0, 1, 2, 3};
  const auto p0 = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, parts, 100);
  const auto p1 = collective::CollectivePlan::ring(1, collective::OpType::kAllGather, parts, 100);
  for (int f = 0; f < 4; ++f) {
    for (int s = 0; s < p0.num_steps(); ++s) {
      EXPECT_FALSE(p0.key_for(f, s) == p1.key_for(f, s));
      EXPECT_FALSE(p1.contains(p0.key_for(f, s)));
    }
  }
}

}  // namespace
}  // namespace vedr
