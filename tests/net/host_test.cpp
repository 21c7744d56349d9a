#include "net/host.h"

#include <gtest/gtest.h>

#include "net/network.h"
#include "net/switch.h"
#include "sim/sharded_engine.h"

namespace vedr::net {
namespace {

struct Fixture {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  NetConfig cfg;
  Topology topo;
  Network net;

  explicit Fixture(int switches = 1)
      : topo(make_chain(switches, NetConfig{})),
        net(engine, ShardPlan::single(topo), topo, NetConfig{}) {}
};

TEST(Host, FlowCompletionTimeMatchesAnalytic) {
  Fixture f;
  const FlowKey key{0, 1, 10, 20};
  const std::int64_t bytes = 1024 * 1024;
  sim::Tick done = sim::kNever;
  f.net.host(1).expect_flow(key, bytes);
  f.net.host(0).start_flow(key, bytes, [&](const FlowKey&, sim::Tick t) { done = t; });
  f.sim.run();
  ASSERT_NE(done, sim::kNever);
  const sim::Tick ideal = f.net.ideal_fct(key, bytes);
  EXPECT_NEAR(static_cast<double>(done), static_cast<double>(ideal),
              static_cast<double>(ideal) * 0.25);
}

TEST(Host, ReceiverSeesExactByteCount) {
  Fixture f;
  const FlowKey key{0, 1, 10, 20};
  // A size that is not a multiple of the MTU exercises the runt last packet.
  const std::int64_t bytes = 3 * 4096 + 1234;
  sim::Tick recv_done = sim::kNever;
  f.net.host(1).expect_flow(key, bytes, [&](const FlowKey&, sim::Tick t) { recv_done = t; });
  f.net.host(0).start_flow(key, bytes);
  f.sim.run();
  EXPECT_NE(recv_done, sim::kNever);
}

TEST(Host, TwoFlowsShareTheNicFairly) {
  Fixture f;
  const FlowKey k1{0, 1, 10, 20};
  const FlowKey k2{0, 1, 11, 21};
  const std::int64_t bytes = 2 * 1024 * 1024;
  sim::Tick d1 = sim::kNever, d2 = sim::kNever;
  f.net.host(1).expect_flow(k1, bytes);
  f.net.host(1).expect_flow(k2, bytes);
  f.net.host(0).start_flow(k1, bytes, [&](const FlowKey&, sim::Tick t) { d1 = t; });
  f.net.host(0).start_flow(k2, bytes, [&](const FlowKey&, sim::Tick t) { d2 = t; });
  f.sim.run();
  ASSERT_NE(d1, sim::kNever);
  ASSERT_NE(d2, sim::kNever);
  // Round-robin arbitration: both finish within ~20% of each other.
  const double ratio = static_cast<double>(d1) / static_cast<double>(d2);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(Host, RttListenerFiresPerAck) {
  Fixture f;
  const FlowKey key{0, 1, 10, 20};
  const std::int64_t bytes = 10 * 4096;  // 10 packets
  int samples = 0;
  sim::Tick max_rtt = 0;
  f.net.host(0).set_rtt_listener([&](const FlowKey& fk, sim::Tick rtt, std::uint32_t) {
    EXPECT_EQ(fk, key);
    ++samples;
    max_rtt = std::max(max_rtt, rtt);
  });
  f.net.host(1).expect_flow(key, bytes);
  f.net.host(0).start_flow(key, bytes);
  f.sim.run();
  EXPECT_EQ(samples, 10);
  EXPECT_GT(max_rtt, 2 * f.net.config().link_delay);
}

TEST(Host, DuplicateFlowRejected) {
  Fixture f;
  const FlowKey key{0, 1, 10, 20};
  f.net.host(0).start_flow(key, 4096);
  EXPECT_THROW(f.net.host(0).start_flow(key, 4096), std::invalid_argument);
}

TEST(Host, WrongSourceRejected) {
  Fixture f;
  EXPECT_THROW(f.net.host(0).start_flow(FlowKey{1, 0, 1, 1}, 4096), std::invalid_argument);
  EXPECT_THROW(f.net.host(0).expect_flow(FlowKey{0, 1, 1, 1}, 4096), std::invalid_argument);
}

TEST(Host, NonPositiveBytesRejected) {
  Fixture f;
  EXPECT_THROW(f.net.host(0).start_flow(FlowKey{0, 1, 1, 1}, 0), std::invalid_argument);
}

TEST(Host, ControlPacketsReachDestinationListener) {
  Fixture f;
  int polls = 0;
  f.net.host(1).set_control_listener([&](const Packet& p, sim::Tick) {
    if (p.type == PacketType::kNotification) ++polls;
  });
  Packet pkt;
  pkt.type = PacketType::kNotification;
  pkt.flow = FlowKey{0, 1, 77, 77};
  pkt.meta = NotifyInfo{0, 1, 2, 0};
  f.net.host(0).send_control(std::move(pkt));
  f.sim.run();
  EXPECT_EQ(polls, 1);
}

TEST(Host, PfcPauseStopsDataAndResumeRestarts) {
  Fixture f;
  const FlowKey key{0, 1, 10, 20};
  const std::int64_t bytes = 64 * 4096;
  sim::Tick done = sim::kNever;
  f.net.host(1).expect_flow(key, bytes);
  f.net.host(0).start_flow(key, bytes, [&](const FlowKey&, sim::Tick t) { done = t; });
  // After 10 us, pause host 0 for 1 ms, then resume.
  const NodeId edge = f.topo.peer(0, 0).node;
  const PortId edge_port_to_h0 = f.topo.peer(0, 0).port;
  f.sim.schedule_at(10 * sim::kMicrosecond, [&f, edge, edge_port_to_h0] {
    f.net.deliver_pfc(edge, edge_port_to_h0, Priority::kData, true);
  });
  f.sim.schedule_at(1 * sim::kMillisecond + 10 * sim::kMicrosecond,
                    [&f, edge, edge_port_to_h0] {
                      f.net.deliver_pfc(edge, edge_port_to_h0, Priority::kData, false);
                    });
  f.sim.run();
  ASSERT_NE(done, sim::kNever);
  // The pause must have delayed completion by roughly its duration.
  EXPECT_GT(done, 1 * sim::kMillisecond);
}

TEST(Host, FlowStateIntrospection) {
  Fixture f;
  const FlowKey key{0, 1, 10, 20};
  f.net.host(1).expect_flow(key, 8 * 4096);
  f.net.host(0).start_flow(key, 8 * 4096);
  EXPECT_TRUE(f.net.host(0).flow_active(key));
  EXPECT_EQ(f.net.host(0).active_send_flows(), 1);
  EXPECT_DOUBLE_EQ(f.net.host(0).flow_rate_gbps(key), 100.0);
  f.sim.run();
  EXPECT_FALSE(f.net.host(0).flow_active(key));
  EXPECT_EQ(f.net.host(0).bytes_in_flight(key), 0);
}

}  // namespace
}  // namespace vedr::net
