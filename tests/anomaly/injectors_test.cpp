#include "anomaly/injectors.h"

#include <gtest/gtest.h>

#include "net/host.h"
#include "net/network.h"
#include "net/switch.h"
#include "sim/sharded_engine.h"

namespace vedr::anomaly {
namespace {

TEST(Injectors, BackgroundKeyRoundTrip) {
  const auto key = background_key(3, 7, 9);
  EXPECT_EQ(key.src, 7);
  EXPECT_EQ(key.dst, 9);
  EXPECT_TRUE(is_background(key));
  EXPECT_FALSE(is_background(net::FlowKey{7, 9, 9000, 1000}));
}

TEST(Injectors, FlowStartsAtScheduledTime) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  const net::Topology topo = net::make_star(3, net::NetConfig{});
  net::Network net(engine, net::ShardPlan::single(topo), topo);
  const InjectedFlow f{background_key(0, 0, 2), 1024 * 1024, 500 * sim::kMicrosecond};
  Tick done = sim::kNever;
  inject_flow(net, f, [&](Tick t) { done = t; });
  sim.run(499 * sim::kMicrosecond);
  EXPECT_FALSE(net.host(0).flow_active(f.key));
  sim.run();
  ASSERT_NE(done, sim::kNever);
  EXPECT_GT(done, f.start);
  const Tick ideal = net.ideal_fct(f.key, f.bytes);
  EXPECT_LT(done, f.start + 2 * ideal);
}

TEST(Injectors, StormForcesAndReleasesPause) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  const net::Topology topo = net::make_star(3, net::NetConfig{});
  net::Network net(engine, net::ShardPlan::single(topo), topo);
  const net::NodeId sw = net.switches()[0];
  const StormSpec storm{net::PortRef{sw, 0}, 100 * sim::kMicrosecond, 1 * sim::kMillisecond};
  inject_storm(net, storm);

  bool paused_during = false, paused_after = false;
  sim.schedule_at(600 * sim::kMicrosecond,
                  [&] { paused_during = net.switch_at(sw).sending_pause_on(0); });
  sim.schedule_at(2 * sim::kMillisecond,
                  [&] { paused_after = net.switch_at(sw).sending_pause_on(0); });
  sim.run();
  EXPECT_TRUE(paused_during);
  EXPECT_FALSE(paused_after);

  // The injected cause is logged for provenance.
  const auto& causes = net.switch_at(sw).telem().all_causes();
  ASSERT_FALSE(causes.empty());
  EXPECT_TRUE(causes.front().injected);
}

TEST(Injectors, StormActuallyHaltsTraffic) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  const net::Topology topo = net::make_star(3, net::NetConfig{});
  net::Network net(engine, net::ShardPlan::single(topo), topo);
  const net::NodeId sw = net.switches()[0];
  const net::FlowKey key = background_key(0, 0, 2);
  Tick done = sim::kNever;
  net.host(2).expect_flow(key, 512 * 1024);
  net.host(0).start_flow(key, 512 * 1024, [&](const net::FlowKey&, Tick t) { done = t; });
  // Pause host 0 via the switch port facing it for 3 ms.
  inject_storm(net, {net::PortRef{sw, 0}, 0, 3 * sim::kMillisecond});
  sim.run();
  ASSERT_NE(done, sim::kNever);
  EXPECT_GT(done, 3 * sim::kMillisecond);
}

}  // namespace
}  // namespace vedr::anomaly
