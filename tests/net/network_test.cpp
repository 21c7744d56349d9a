#include "net/network.h"

#include <gtest/gtest.h>

#include "net/host.h"
#include "net/switch.h"
#include "sim/sharded_engine.h"

namespace vedr::net {
namespace {

TEST(Network, ConstructsDevicesMatchingTopology) {
  sim::ShardedEngine engine;
  const Topology topo = make_fat_tree(4, NetConfig{});
  Network net(engine, ShardPlan::single(topo), topo);
  EXPECT_EQ(net.hosts().size(), 16u);
  EXPECT_EQ(net.switches().size(), 20u);
  EXPECT_NO_THROW(net.host(0));
  EXPECT_NO_THROW(net.switch_at(16));
  EXPECT_THROW(net.host(16), std::invalid_argument);
  EXPECT_THROW(net.switch_at(0), std::invalid_argument);
}

TEST(Network, BaseRttScalesWithHops) {
  sim::ShardedEngine engine;
  const Topology topo = make_fat_tree(4, NetConfig{});
  Network net(engine, ShardPlan::single(topo), topo);
  const Tick same_edge = net.base_rtt(FlowKey{0, 1, 1, 1});    // 2 links
  const Tick same_pod = net.base_rtt(FlowKey{0, 2, 1, 1});     // 4 links
  const Tick cross_pod = net.base_rtt(FlowKey{0, 15, 1, 1});   // 6 links
  EXPECT_LT(same_edge, same_pod);
  EXPECT_LT(same_pod, cross_pod);
  // 2 links: fwd 2*(2us + 0.33us) + rev 2*(2us + 5ns) ~ 8.7us.
  EXPECT_GT(same_edge, 8 * sim::kMicrosecond);
  EXPECT_LT(same_edge, 10 * sim::kMicrosecond);
}

TEST(Network, IdealFctMonotonicInSize) {
  sim::ShardedEngine engine;
  const Topology topo = make_fat_tree(4, NetConfig{});
  Network net(engine, ShardPlan::single(topo), topo);
  const FlowKey f{0, 15, 1, 1};
  Tick prev = 0;
  for (std::int64_t b = 1 << 12; b <= 1 << 24; b <<= 2) {
    const Tick fct = net.ideal_fct(f, b);
    EXPECT_GT(fct, prev);
    prev = fct;
  }
}

TEST(Network, IdealFctDominatedBySerializationForLargeFlows) {
  sim::ShardedEngine engine;
  const Topology topo = make_fat_tree(4, NetConfig{});
  Network net(engine, ShardPlan::single(topo), topo);
  const FlowKey f{0, 15, 1, 1};
  const std::int64_t bytes = 100 * 1024 * 1024;
  const Tick fct = net.ideal_fct(f, bytes);
  const Tick serialization = sim::transmission_delay(bytes, 100.0);
  EXPECT_GT(fct, serialization);
  EXPECT_LT(fct, serialization + serialization / 4);
}

TEST(Network, DeliverHonorsPropagationDelay) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  NetConfig cfg;
  cfg.link_delay = 7 * sim::kMicrosecond;
  const Topology topo = make_chain(1, cfg);
  Network net(engine, ShardPlan::single(topo), topo, cfg);
  // Host 0's uplink: deliver a PFC frame and observe the host pauses only
  // after the link delay.
  const NodeId edge = net.topology().peer(0, 0).node;
  const PortId port = net.topology().peer(0, 0).port;
  net.deliver_pfc(edge, port, Priority::kData, true);
  sim.run(6 * sim::kMicrosecond);
  EXPECT_FALSE(net.host(0).data_paused());
  sim.run();
  EXPECT_TRUE(net.host(0).data_paused());
}

TEST(Network, StatsSharedAcrossDevices) {
  sim::ShardedEngine engine;
  const Topology topo = make_star(4, NetConfig{});
  Network net(engine, ShardPlan::single(topo), topo);
  net.stats().add_counter("test", 3);
  EXPECT_EQ(net.stats().counter("test"), 3);
}

TEST(Packet, ReverseSwapsEndpoints) {
  const FlowKey f{3, 9, 100, 200};
  const FlowKey r = reverse(f);
  EXPECT_EQ(r.src, 9);
  EXPECT_EQ(r.dst, 3);
  EXPECT_EQ(r.sport, 200);
  EXPECT_EQ(r.dport, 100);
  EXPECT_EQ(reverse(r), f);
}

TEST(Packet, MakeDataDefaults) {
  const Packet p = make_data(FlowKey{1, 2, 3, 4}, 7, 4160, 64);
  EXPECT_EQ(p.type, PacketType::kData);
  EXPECT_EQ(p.prio, Priority::kData);
  EXPECT_TRUE(p.ecn_capable);
  EXPECT_FALSE(p.ecn_ce);
  EXPECT_EQ(p.seq, 7u);
  EXPECT_EQ(p.ttl, 64);
}

}  // namespace
}  // namespace vedr::net
