// Cross-module end-to-end properties: per-scenario diagnosis under each
// system, overhead ordering, determinism, losslessness, and the
// Halving-and-Doubling pipeline the paper motivates but does not evaluate.
#include <gtest/gtest.h>

#include "anomaly/injectors.h"
#include "baselines/full_polling.h"
#include "baselines/hawkeye.h"
#include "collective/runner.h"
#include "core/vedrfolnir.h"
#include "eval/experiment.h"
#include "net/host.h"
#include "net/network.h"
#include "net/switch.h"
#include "sim/sharded_engine.h"

namespace vedr {
namespace {

eval::ScenarioParams small_params() {
  eval::ScenarioParams p;
  p.scale = 1.0 / 128.0;
  return p;
}

TEST(E2E, EverySystemRunsEveryScenario) {
  const eval::RunConfig cfg;
  const auto params = small_params();
  const net::Topology topo = net::make_fat_tree(4, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  for (auto type : {eval::ScenarioType::kFlowContention, eval::ScenarioType::kIncast,
                    eval::ScenarioType::kPfcStorm, eval::ScenarioType::kPfcBackpressure}) {
    const auto spec = eval::make_scenario(type, 1, topo, routing, params);
    for (auto system :
         {eval::SystemKind::kVedrfolnir, eval::SystemKind::kHawkeyeMaxR,
          eval::SystemKind::kHawkeyeMinR, eval::SystemKind::kFullPolling}) {
      const auto r = eval::run_case(spec, system, cfg);
      EXPECT_TRUE(r.cc_completed) << eval::to_string(system) << " " << spec.str();
      EXPECT_FALSE(r.outcome.fn && r.outcome.fp) << "outcome must be exclusive";
    }
  }
}

TEST(E2E, RunCaseIsDeterministic) {
  const eval::RunConfig cfg;
  const auto params = small_params();
  const net::Topology topo = net::make_fat_tree(4, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  const auto spec =
      eval::make_scenario(eval::ScenarioType::kFlowContention, 2, topo, routing, params);
  const auto a = eval::run_case(spec, eval::SystemKind::kVedrfolnir, cfg);
  const auto b = eval::run_case(spec, eval::SystemKind::kVedrfolnir, cfg);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.cc_time, b.cc_time);
  EXPECT_EQ(a.telemetry_bytes, b.telemetry_bytes);
  EXPECT_EQ(a.outcome.label(), b.outcome.label());
}

TEST(E2E, OverheadOrderingAcrossSystems) {
  // The paper's Fig. 10 ordering on one contention case:
  // Vedrfolnir < Hawkeye-MaxR <= Hawkeye-MinR, and full polling highest.
  const eval::RunConfig cfg;
  const auto params = small_params();
  const net::Topology topo = net::make_fat_tree(4, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);

  std::int64_t telemetry[4] = {};
  for (int s = 0; s < 4; ++s) {
    std::int64_t sum = 0;
    for (int id = 0; id < 3; ++id) {
      const auto spec = eval::make_scenario(eval::ScenarioType::kFlowContention, id, topo,
                                            routing, params);
      sum += eval::run_case(spec, static_cast<eval::SystemKind>(s), cfg).telemetry_bytes;
    }
    telemetry[s] = sum;
  }
  EXPECT_LT(telemetry[0], telemetry[1]);  // Vedrfolnir < Hawkeye-MaxR
  EXPECT_LE(telemetry[1], telemetry[2]);  // MaxR <= MinR
  EXPECT_LT(telemetry[0], telemetry[3]);  // Vedrfolnir < FullPolling
}

TEST(E2E, FabricStaysLosslessUnderIncast) {
  // PFC safety property: whatever the incast degree, no data drops.
  for (int senders : {2, 4, 8, 15}) {
    sim::ShardedEngine engine;
    sim::Simulator& sim = engine.domain(0);
    net::NetConfig cfg;
    const net::Topology topo = net::make_fat_tree(4, cfg);
    net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);
    for (int s = 0; s < senders; ++s) {
      const net::FlowKey key = anomaly::background_key(s, s, 15);
      network.host(15).expect_flow(key, 2 * 1024 * 1024);
      network.host(s).start_flow(key, 2 * 1024 * 1024);
    }
    sim.run(5 * sim::kSecond);
    for (net::NodeId sw : network.switches())
      EXPECT_EQ(network.switch_at(sw).drops(), 0) << senders << " senders";
  }
}

TEST(E2E, HalvingDoublingDiagnosis) {
  // The paper's decomposition generalizes beyond Ring (§V); the whole
  // pipeline must work when destinations change per step.
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);
  const std::vector<net::NodeId> participants = {0, 2, 4, 6, 8, 10, 12, 14};
  auto plan = collective::CollectivePlan::halving_doubling(
      0, collective::OpType::kAllGather, participants, 1024 * 1024);
  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);

  const net::FlowKey bg = anomaly::background_key(0, 1, participants[3]);
  anomaly::inject_flow(network, {bg, 24 * 1024 * 1024, 0});
  runner.start(0);
  sim.run(5 * sim::kSecond);

  ASSERT_TRUE(runner.done());
  const auto diag = vedr.diagnose();
  EXPECT_TRUE(diag.detects_flow(bg)) << diag.summary();
  EXPECT_FALSE(diag.critical_path.empty());
}

TEST(E2E, AllReduceUnderStormRecovers) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);
  const auto hosts = network.topology().hosts();
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 8);
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllReduce, participants,
                                               1024 * 1024);
  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);

  // Storm on a switch-to-switch link of flow 1's path.
  net::PortRef injection{};
  const net::FlowKey key = runner.plan().key_for(1, 0);
  for (const auto& hop : network.routing().port_path_of(network.topology(), key)) {
    if (network.topology().is_host(hop.node)) continue;
    const auto peer = network.topology().peer(hop.node, hop.port);
    if (!network.topology().is_host(peer.node)) {
      injection = peer;
      break;
    }
  }
  if (!injection.valid()) GTEST_SKIP() << "no switch-switch hop on this path";
  anomaly::inject_storm(network, {injection, 100 * sim::kMicrosecond, 1 * sim::kMillisecond});

  runner.start(0);
  sim.run(10 * sim::kSecond);
  ASSERT_TRUE(runner.done());
  EXPECT_GT(runner.finish_time(), 1 * sim::kMillisecond);
  const auto diag = vedr.diagnose();
  bool traced = false;
  for (const auto& f : diag.findings)
    if (f.type == core::AnomalyType::kPfcStorm && f.root_port == injection) traced = true;
  EXPECT_TRUE(traced) << diag.summary();
}

TEST(E2E, NoAnomalyMeansNoFalsePositive) {
  // A clean run must not implicate any background flow (there are none) and
  // should collect almost nothing.
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);
  const auto hosts = network.topology().hosts();
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 8);
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               1024 * 1024);
  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);
  runner.start(0);
  sim.run(5 * sim::kSecond);
  ASSERT_TRUE(runner.done());
  const auto diag = vedr.diagnose();
  EXPECT_TRUE(diag.all_contenders().empty()) << diag.summary();
}

// Parameterized sweep: the collective completes and is diagnosed across
// sizes and participant counts.
class CollectiveSweep : public ::testing::TestWithParam<std::tuple<int, std::int64_t>> {};

TEST_P(CollectiveSweep, ContentionDetectedAcrossShapes) {
  const auto [n_participants, bytes] = GetParam();
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);
  const auto hosts = network.topology().hosts();
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + n_participants);
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               bytes);
  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);
  const net::FlowKey bg = anomaly::background_key(0, hosts[15], participants[1]);
  anomaly::inject_flow(network, {bg, 8 * bytes, 0});
  runner.start(0);
  sim.run(30 * sim::kSecond);
  ASSERT_TRUE(runner.done());
  EXPECT_TRUE(vedr.diagnose().detects_flow(bg));
}

INSTANTIATE_TEST_SUITE_P(Shapes, CollectiveSweep,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(512 * 1024, 2 * 1024 * 1024)));

}  // namespace
}  // namespace vedr
