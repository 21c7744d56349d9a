// Extension anomaly classes beyond the paper's four evaluated scenarios:
// routing loops, PFC deadlocks, and the stalled-flow watchdog that makes
// both detectable (§II-B, §V).
#include <gtest/gtest.h>

#include "anomaly/injectors.h"
#include "collective/runner.h"
#include "core/vedrfolnir.h"
#include "net/host.h"
#include "net/network.h"
#include "net/switch.h"
#include "sim/sharded_engine.h"

namespace vedr {
namespace {

TEST(RoutingLoop, PacketsDieByTtlAndAreCounted) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);

  // Loop between host 15's edge switch and one of its aggs, for dst 15.
  const net::NodeId edge = network.topology().peer(15, 0).node;
  const net::NodeId agg = network.topology().node(edge).ports.at(2).peer;
  anomaly::inject_routing_loop(network, 15, edge, agg, 0);

  const net::FlowKey key = anomaly::background_key(0, 0, 15);
  network.host(15).expect_flow(key, 64 * 4096);
  network.host(0).start_flow(key, 64 * 4096);
  sim.run(50 * sim::kMillisecond);

  EXPECT_GT(network.stats().counter("switch.ttl_drops"), 0);
  const auto drops = network.switch_at(edge).telem().drops_since(0);
  const auto agg_drops = network.switch_at(agg).telem().drops_since(0);
  EXPECT_FALSE(drops.empty() && agg_drops.empty());
}

TEST(RoutingLoop, VedrfolnirDiagnosesLoopOnCollectivePath) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);

  const auto hosts = network.topology().hosts();
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 8);
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               2 * 1024 * 1024);
  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);

  // Mid-run reconfiguration glitch: participant 3's edge and agg point at
  // each other for its address.
  const net::NodeId victim = participants[3];
  const net::NodeId edge = network.topology().peer(victim, 0).node;
  const net::NodeId agg = network.topology().node(edge).ports.at(2).peer;
  anomaly::inject_routing_loop(network, victim, edge, agg, 100 * sim::kMicrosecond);

  runner.start(0);
  sim.run(200 * sim::kMillisecond);

  // The flow into the victim can never complete.
  EXPECT_FALSE(runner.done());
  const auto diag = vedr.diagnose();
  ASSERT_TRUE(diag.has_type(core::AnomalyType::kRoutingLoop)) << diag.summary();
  for (const auto& f : diag.findings) {
    if (f.type != core::AnomalyType::kRoutingLoop) continue;
    EXPECT_TRUE(f.root_port.node == edge || f.root_port.node == agg) << f.str();
  }
}

TEST(Watchdog, FiresWhenFlowFullyStalled) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);

  const auto hosts = network.topology().hosts();
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 4);
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               4 * 1024 * 1024);
  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);

  // Halt participant 0's uplink for 5 ms: no ACKs, no RTT triggers.
  const auto access = network.topology().peer(participants[0], 0);
  sim.schedule_at(50 * sim::kMicrosecond, [&network, access] {
    network.deliver_pfc(access.node, access.port, net::Priority::kData, true);
  });
  sim.schedule_at(5 * sim::kMillisecond, [&network, access] {
    network.deliver_pfc(access.node, access.port, net::Priority::kData, false);
  });
  runner.start(0);
  sim.run();

  ASSERT_TRUE(runner.done());
  EXPECT_GT(vedr.monitor_of(participants[0]).watchdog_polls(), 0)
      << "a 5 ms stall must trip the 1 ms watchdog";
  EXPECT_GT(network.stats().counter("monitor.watchdog_polls"), 0);
}

TEST(Watchdog, DisabledViaConfig) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);
  const auto hosts = network.topology().hosts();
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 4);
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               4 * 1024 * 1024);
  collective::CollectiveRunner runner(network, std::move(plan));
  core::VedrfolnirConfig vcfg;
  vcfg.detection.stall_timeout = 0;
  core::Vedrfolnir vedr(network, runner, vcfg);

  const auto access = network.topology().peer(participants[0], 0);
  sim.schedule_at(50 * sim::kMicrosecond, [&network, access] {
    network.deliver_pfc(access.node, access.port, net::Priority::kData, true);
  });
  sim.schedule_at(5 * sim::kMillisecond, [&network, access] {
    network.deliver_pfc(access.node, access.port, net::Priority::kData, false);
  });
  runner.start(0);
  sim.run();
  EXPECT_EQ(vedr.monitor_of(participants[0]).watchdog_polls(), 0);
}

TEST(Deadlock, CyclicPauseFormsAndIsDiagnosed) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  cfg.ecn_kmin_bytes = 1 << 30;  // no ECN: nothing tames line-rate start
  cfg.ecn_kmax_bytes = 1 << 30;
  const net::Topology topo = net::make_switch_ring(4, 1, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);
  anomaly::pin_clockwise_routes(network, network.switches());

  const std::vector<net::NodeId> participants = {0, 2, 1, 3};
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               4 * 1024 * 1024);
  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);
  runner.start(0);
  sim.run(2 * sim::kSecond);

  // The cyclic buffer dependency never resolves.
  EXPECT_FALSE(runner.done());
  int paused_switches = 0;
  for (net::NodeId sw : network.switches()) {
    for (net::PortId p = 0; p < network.switch_at(sw).num_ports(); ++p)
      if (network.switch_at(sw).sending_pause_on(p)) {
        ++paused_switches;
        break;
      }
  }
  EXPECT_EQ(paused_switches, 4) << "every ring switch should be pausing its neighbour";

  const auto diag = vedr.diagnose();
  EXPECT_TRUE(diag.has_type(core::AnomalyType::kPfcDeadlock)) << diag.summary();
}

TEST(LoadImbalance, EcmpCollisionBetweenCollectiveFlowsDiagnosed) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);

  // Ring over 8 cross-pod hosts; then pin both of edge 16's uplinks onto
  // ONE agg (the ECMP misjudgment of §II-B anomaly 1) so the two flows
  // leaving hosts 0 and 1 fight over a single 100G link.
  const std::vector<net::NodeId> participants = {0, 4, 1, 5, 2, 6, 3, 7};
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               2 * 1024 * 1024);
  const net::NodeId edge = network.topology().peer(0, 0).node;  // hosts 0,1 share it
  const net::PortId uplink = anomaly::port_towards(
      network.topology(), edge, network.topology().node(edge).ports.at(2).peer);
  for (net::NodeId dst : {4, 5, 6, 7})
    network.routing().override_route(edge, dst, {uplink});

  collective::CollectiveRunner runner(network, std::move(plan));
  core::Vedrfolnir vedr(network, runner);
  runner.start(0);
  sim.run(10 * sim::kSecond);
  ASSERT_TRUE(runner.done());

  const auto diag = vedr.diagnose();
  ASSERT_TRUE(diag.has_type(core::AnomalyType::kLoadImbalance)) << diag.summary();
  // The overloaded pinned uplink must be among the implicated ports (other
  // fabric ports can legitimately show secondary collisions too).
  bool pinned_port_found = false;
  for (const auto& f : diag.findings) {
    if (f.type != core::AnomalyType::kLoadImbalance) continue;
    for (const auto& p : f.congested_ports)
      if (p == net::PortRef{edge, uplink}) pinned_port_found = true;
  }
  EXPECT_TRUE(pinned_port_found) << diag.summary();
}

TEST(Deadlock, LosslessEvenWhileDeadlocked) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  net::NetConfig cfg;
  cfg.ecn_kmin_bytes = 1 << 30;
  cfg.ecn_kmax_bytes = 1 << 30;
  const net::Topology topo = net::make_switch_ring(4, 1, cfg);
  net::Network network(engine, net::ShardPlan::single(topo), topo, cfg);
  anomaly::pin_clockwise_routes(network, network.switches());
  const std::vector<net::NodeId> participants = {0, 2, 1, 3};
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               4 * 1024 * 1024);
  collective::CollectiveRunner runner(network, std::move(plan));
  runner.start(0);
  sim.run(2 * sim::kSecond);
  for (net::NodeId sw : network.switches())
    EXPECT_EQ(network.switch_at(sw).drops(), 0) << "PFC must stay lossless even in deadlock";
}

}  // namespace
}  // namespace vedr
