#include "net/congestion_control.h"

#include <gtest/gtest.h>

#include "collective/runner.h"
#include "net/host.h"
#include "net/network.h"
#include "net/switch.h"
#include "sim/sharded_engine.h"

namespace vedr::net {
namespace {

SwiftParams params() {
  SwiftParams p;
  p.line_rate_gbps = 100.0;
  return p;
}

TEST(Swift, StartsAtLineRate) {
  sim::Simulator sim;
  SwiftFlow f(sim, params(), 10 * sim::kMicrosecond);
  EXPECT_DOUBLE_EQ(f.rate_gbps(), 100.0);
  EXPECT_EQ(f.target_delay(), 15 * sim::kMicrosecond);
}

TEST(Swift, BelowTargetHoldsOrRaises) {
  sim::Simulator sim;
  SwiftFlow f(sim, params(), 10 * sim::kMicrosecond);
  f.on_rtt(12 * sim::kMicrosecond);
  EXPECT_DOUBLE_EQ(f.rate_gbps(), 100.0);  // clamped at line rate
}

TEST(Swift, AboveTargetDecreasesProportionally) {
  sim::Simulator sim;
  SwiftFlow f(sim, params(), 10 * sim::kMicrosecond);
  // RTT = 2x target: excess = 0.5, capped at max_mdf 0.5 -> rate halves.
  f.on_rtt(30 * sim::kMicrosecond);
  EXPECT_NEAR(f.rate_gbps(), 50.0, 1.0);
}

TEST(Swift, DecreaseHoldoffLimitsBackToBackCuts) {
  sim::Simulator sim;
  SwiftFlow f(sim, params(), 10 * sim::kMicrosecond);
  f.on_rtt(30 * sim::kMicrosecond);
  const double after_first = f.rate_gbps();
  f.on_rtt(30 * sim::kMicrosecond);  // same instant: held off
  EXPECT_DOUBLE_EQ(f.rate_gbps(), after_first);
}

TEST(Swift, RecoversAdditively) {
  sim::Simulator sim;
  SwiftFlow f(sim, params(), 10 * sim::kMicrosecond);
  f.on_rtt(60 * sim::kMicrosecond);
  const double low = f.rate_gbps();
  for (int i = 0; i < 10; ++i) f.on_rtt(11 * sim::kMicrosecond);
  EXPECT_NEAR(f.rate_gbps(), low + 10 * params().ai_gbps, 1e-9);
}

TEST(Swift, NeverBelowMinRate) {
  sim::Simulator sim;
  SwiftFlow f(sim, params(), 10 * sim::kMicrosecond);
  for (int i = 0; i < 100; ++i) {
    sim.schedule_in(60 * sim::kMicrosecond, [] {});
    sim.run();
    f.on_rtt(1 * sim::kMillisecond);
  }
  EXPECT_GE(f.rate_gbps(), params().min_rate_gbps);
}

TEST(Swift, DeactivateFreezes) {
  sim::Simulator sim;
  SwiftFlow f(sim, params(), 10 * sim::kMicrosecond);
  f.deactivate();
  f.on_rtt(1 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(f.rate_gbps(), 100.0);
}

TEST(Swift, FactorySelectsAlgorithm) {
  sim::Simulator sim;
  const auto dcqcn = make_congestion_control(CcAlgorithm::kDcqcn, sim, DcqcnParams{},
                                             SwiftParams{}, 10 * sim::kMicrosecond);
  const auto swift = make_congestion_control(CcAlgorithm::kSwift, sim, DcqcnParams{},
                                             SwiftParams{}, 10 * sim::kMicrosecond);
  EXPECT_NE(dynamic_cast<DcqcnCc*>(dcqcn.get()), nullptr);
  EXPECT_NE(dynamic_cast<SwiftFlow*>(swift.get()), nullptr);
}

TEST(Swift, IncastUnderSwiftStaysLossless) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  NetConfig cfg;
  cfg.cc_algorithm = CcAlgorithm::kSwift;
  const Topology topo = make_star(5, cfg);
  Network net(engine, ShardPlan::single(topo), topo, cfg);
  int done = 0;
  for (NodeId s = 0; s < 4; ++s) {
    const FlowKey key{s, 4, static_cast<std::uint16_t>(10 + s), 20};
    net.host(4).expect_flow(key, 2 * 1024 * 1024);
    net.host(s).start_flow(key, 2 * 1024 * 1024,
                           [&done](const FlowKey&, sim::Tick) { ++done; });
  }
  sim.run(5 * sim::kSecond);
  EXPECT_EQ(done, 4);
  EXPECT_EQ(net.switch_at(net.switches()[0]).drops(), 0);
  // Swift throttled the senders: none should still be at line rate mid-run
  // is hard to assert post-hoc, but completion without drops under a 4:1
  // incast demonstrates the control loop engaged with PFC as backstop.
}

TEST(Swift, CollectiveCompletesUnderSwift) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  NetConfig cfg;
  cfg.cc_algorithm = CcAlgorithm::kSwift;
  const Topology topo = make_fat_tree(4, cfg);
  Network net(engine, ShardPlan::single(topo), topo, cfg);
  const auto hosts = net.topology().hosts();
  std::vector<NodeId> participants(hosts.begin(), hosts.begin() + 8);
  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                               1024 * 1024);
  collective::CollectiveRunner runner(net, std::move(plan));
  runner.start(0);
  sim.run(10 * sim::kSecond);
  EXPECT_TRUE(runner.done());
}

TEST(Swift, Names) {
  EXPECT_STREQ(to_string(CcAlgorithm::kDcqcn), "DCQCN");
  EXPECT_STREQ(to_string(CcAlgorithm::kSwift), "Swift");
}

}  // namespace
}  // namespace vedr::net
