// End-to-end smoke tests: the full stack (simulator -> fabric -> collective
// -> diagnosis) on small scenarios. These run first during bring-up; the
// detailed per-module suites live alongside each library.
#include <gtest/gtest.h>

#include "anomaly/injectors.h"
#include "collective/runner.h"
#include "core/vedrfolnir.h"
#include "eval/experiment.h"
#include "net/host.h"
#include "net/network.h"
#include "net/switch.h"
#include "sim/sharded_engine.h"

namespace vedr {
namespace {

TEST(Smoke, SingleFlowCompletesAtLineRate) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_chain(2, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo);

  const auto hosts = network.hosts();
  const net::FlowKey key{hosts[0], hosts[1], 10, 20};
  const std::int64_t bytes = 4 * 1024 * 1024;

  sim::Tick done_at = sim::kNever;
  network.host(hosts[1]).expect_flow(key, bytes);
  network.host(hosts[0]).start_flow(key, bytes,
                                    [&](const net::FlowKey&, sim::Tick t) { done_at = t; });
  sim.run();

  ASSERT_NE(done_at, sim::kNever);
  // 4 MiB at 100 Gbps is ~336 us of serialization; the ideal FCT plus slack
  // bounds it; no congestion on an idle chain.
  const sim::Tick ideal = network.ideal_fct(key, bytes);
  EXPECT_GE(done_at, ideal / 2);
  EXPECT_LE(done_at, ideal * 2);
}

TEST(Smoke, RingAllGatherCompletesOnFatTree) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo);

  const auto hosts = network.hosts();
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 8);
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               1 * 1024 * 1024);
  collective::CollectiveRunner runner(network, std::move(plan));
  runner.start(0);
  sim.run();

  ASSERT_TRUE(runner.done());
  EXPECT_GT(runner.finish_time(), 0);
  // 7 steps of 1 MiB: each step ~84 us serialized; dependencies serialize
  // roughly linearly.
  EXPECT_LT(runner.finish_time(), 100 * sim::kMillisecond);
}

TEST(Smoke, VedrfolnirDiagnosesInjectedContention) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo);

  const auto hosts = network.hosts();
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 8);
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               4 * 1024 * 1024);
  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);

  // A fat background flow colliding with the collective at a participant's
  // access link.
  const net::FlowKey bg = anomaly::background_key(0, hosts[12], participants[1]);
  anomaly::inject_flow(network, {bg, 16 * 1024 * 1024, 0});

  runner.start(0);
  sim.run(2 * sim::kSecond);
  ASSERT_TRUE(runner.done());

  auto diag = vedr.diagnose();
  EXPECT_TRUE(diag.detects_flow(bg)) << diag.summary();
  EXPECT_FALSE(diag.critical_path.empty());
  EXPECT_GT(vedr.total_polls(), 0);
}

TEST(Smoke, RunCaseHarnessAllScenarios) {
  eval::RunConfig cfg;
  eval::ScenarioParams params;
  params.scale = 1.0 / 64.0;

  const net::Topology topo = net::make_fat_tree(4, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);

  for (auto type : {eval::ScenarioType::kFlowContention, eval::ScenarioType::kIncast,
                    eval::ScenarioType::kPfcStorm, eval::ScenarioType::kPfcBackpressure}) {
    const auto spec = eval::make_scenario(type, 0, topo, routing, params);
    const auto result = eval::run_case(spec, eval::SystemKind::kVedrfolnir, cfg);
    EXPECT_TRUE(result.cc_completed) << spec.str();
    EXPECT_GT(result.sim_events, 0u);
  }
}

}  // namespace
}  // namespace vedr
