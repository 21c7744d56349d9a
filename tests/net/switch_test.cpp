#include "net/switch.h"

#include <gtest/gtest.h>

#include "net/host.h"
#include "net/network.h"
#include "sim/sharded_engine.h"

namespace vedr::net {
namespace {

/// Star fabric: N senders into one switch makes queueing/PFC/ECN easy to
/// provoke deterministically.
struct StarFixture {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  Topology topo;
  Network net;

  explicit StarFixture(int hosts = 5, NetConfig cfg = NetConfig{})
      : topo(make_star(hosts, cfg)), net(engine, ShardPlan::single(topo), topo, cfg) {}

  NodeId sw() const { return topo.switches()[0]; }
};

TEST(Switch, ForwardsBetweenHosts) {
  StarFixture f(3);
  const FlowKey key{0, 2, 5, 6};
  sim::Tick done = sim::kNever;
  f.net.host(2).expect_flow(key, 8 * 4096, [&](const FlowKey&, sim::Tick t) { done = t; });
  f.net.host(0).start_flow(key, 8 * 4096);
  f.sim.run();
  EXPECT_NE(done, sim::kNever);
}

TEST(Switch, IncastBuildsQueueAndEcnMarks) {
  StarFixture f(5);
  // 4 senders -> host 4: 400 Gbps offered into a 100 Gbps egress.
  for (NodeId s = 0; s < 4; ++s) {
    const FlowKey key{s, 4, static_cast<std::uint16_t>(10 + s), 20};
    f.net.host(4).expect_flow(key, 4 * 1024 * 1024);
    f.net.host(0 + s).start_flow(key, 4 * 1024 * 1024);
  }
  // Sample the queue shortly after start.
  std::int64_t peak_q = 0;
  for (int i = 1; i <= 40; ++i) {
    f.sim.schedule_at(i * 10 * sim::kMicrosecond, [&] {
      peak_q = std::max(peak_q,
                        f.net.switch_at(f.sw()).queue_bytes(4, Priority::kData));
    });
  }
  f.sim.run();
  EXPECT_GT(peak_q, f.net.config().ecn_kmin_bytes);
  // DCQCN must have been engaged: CNPs only exist if CE marks were set.
  EXPECT_EQ(f.net.switch_at(f.sw()).drops(), 0);
}

TEST(Switch, PfcPausesUpstreamHostBeforeOverflow) {
  NetConfig cfg;
  cfg.ecn_kmin_bytes = 1 << 30;  // disable ECN so only PFC protects buffers
  cfg.ecn_kmax_bytes = 1 << 30;
  StarFixture f(5, cfg);
  for (NodeId s = 0; s < 4; ++s) {
    const FlowKey key{s, 4, static_cast<std::uint16_t>(10 + s), 20};
    f.net.host(4).expect_flow(key, 2 * 1024 * 1024);
    f.net.host(s).start_flow(key, 2 * 1024 * 1024);
  }
  bool saw_pause = false;
  for (int i = 1; i <= 200; ++i) {
    f.sim.schedule_at(i * 5 * sim::kMicrosecond, [&] {
      for (PortId p = 0; p < 5; ++p)
        if (f.net.switch_at(f.sw()).sending_pause_on(p)) saw_pause = true;
    });
  }
  f.sim.run();
  EXPECT_TRUE(saw_pause);
  EXPECT_EQ(f.net.switch_at(f.sw()).drops(), 0) << "PFC must keep the fabric lossless";
  EXPECT_GT(f.net.stats().counter("pfc.pause_frames"), 0);
  EXPECT_GT(f.net.stats().counter("pfc.resume_frames"), 0);
}

TEST(Switch, ForcePauseHaltsPeerAndRecordsInjectedCause) {
  StarFixture f(3);
  const FlowKey key{0, 2, 5, 6};
  sim::Tick done = sim::kNever;
  f.net.host(2).expect_flow(key, 64 * 4096, [&](const FlowKey&, sim::Tick t) { done = t; });
  f.net.host(0).start_flow(key, 64 * 4096);

  // Storm: switch port facing host 0 emits PAUSE for 2 ms.
  f.sim.schedule_at(10 * sim::kMicrosecond,
                    [&] { f.net.switch_at(f.sw()).force_pause(0, 2 * sim::kMillisecond); });
  f.sim.run();
  ASSERT_NE(done, sim::kNever);
  EXPECT_GT(done, 2 * sim::kMillisecond);

  const auto& causes = f.net.switch_at(f.sw()).telem().all_causes();
  ASSERT_FALSE(causes.empty());
  EXPECT_TRUE(causes.front().injected);
  EXPECT_EQ(causes.front().ingress_port.port, 0);
}

TEST(Switch, TtlExpiryDropsAndCounts) {
  StarFixture f(3);
  Packet pkt = make_data(FlowKey{0, 2, 5, 6}, 0, 4096, /*ttl=*/1);
  // TTL 1: decremented to 0 at the switch, next hop would need 1 more.
  pkt.ttl = 0;
  f.net.host(0); // ensure constructed
  f.sim.schedule_at(0, [&f, pkt] {
    f.net.switch_at(f.sw()).handle_rx_ref(f.net.pool().acquire(pkt), 0);
  });
  f.sim.run();
  EXPECT_EQ(f.net.switch_at(f.sw()).ttl_drops(), 1);
}

TEST(Switch, ControlPriorityBypassesDataBacklog) {
  StarFixture f(5);
  // Saturate egress to host 4 with data.
  for (NodeId s = 0; s < 3; ++s) {
    const FlowKey key{s, 4, static_cast<std::uint16_t>(10 + s), 20};
    f.net.host(4).expect_flow(key, 8 * 1024 * 1024);
    f.net.host(s).start_flow(key, 8 * 1024 * 1024);
  }
  // At 200 us (queue deep), send a control notification 3 -> 4.
  sim::Tick sent_at = 0, got_at = sim::kNever;
  f.net.host(4).set_control_listener(
      [&](const Packet&, sim::Tick t) { got_at = t; });
  f.sim.schedule_at(200 * sim::kMicrosecond, [&] {
    sent_at = f.sim.now();
    Packet pkt;
    pkt.type = PacketType::kNotification;
    pkt.flow = FlowKey{3, 4, 77, 77};
    pkt.meta = NotifyInfo{0, 0, 1, 3};
    f.net.host(3).send_control(std::move(pkt));
  });
  f.sim.run();
  ASSERT_NE(got_at, sim::kNever);
  // Strict priority: the notification crosses in near-baseline time even
  // though megabytes of data are queued ahead.
  EXPECT_LT(got_at - sent_at, 50 * sim::kMicrosecond);
}

TEST(Switch, TelemetryRecordsFlowsAndMeters) {
  StarFixture f(3);
  const FlowKey key{0, 2, 5, 6};
  f.net.host(2).expect_flow(key, 16 * 4096);
  f.net.host(0).start_flow(key, 16 * 4096);
  f.sim.run();
  const auto& sw = f.net.switch_at(f.sw());
  // Egress toward host 2 is port 2 in a star (one port per host, in order).
  const auto report = sw.telem().port_snapshot(2, f.sim.now(), 0);
  ASSERT_EQ(report.flows.size(), 1u);
  EXPECT_EQ(report.flows[0].flow, key);
  EXPECT_EQ(report.flows[0].pkts, 16);
  ASSERT_FALSE(report.meters.empty());
  EXPECT_EQ(report.meters[0].in_port, 0);
  EXPECT_GT(report.meters[0].bytes, 16 * 4096);
}

TEST(Switch, QueueCapDropsWhenPfcDisabled) {
  NetConfig cfg;
  cfg.pfc_xoff_bytes = 1 << 30;  // PFC off
  cfg.pfc_xon_bytes = 1 << 30;
  cfg.ecn_kmin_bytes = 1 << 30;  // ECN off
  cfg.ecn_kmax_bytes = 1 << 30;
  cfg.queue_cap_bytes = 256 * 1024;
  StarFixture f(5, cfg);
  for (NodeId s = 0; s < 4; ++s) {
    const FlowKey key{s, 4, static_cast<std::uint16_t>(10 + s), 20};
    f.net.host(4).expect_flow(key, 4 * 1024 * 1024);
    f.net.host(s).start_flow(key, 4 * 1024 * 1024);
  }
  f.sim.run(50 * sim::kMillisecond);
  EXPECT_GT(f.net.switch_at(f.sw()).drops(), 0)
      << "without PFC/ECN a 4:1 incast must overflow a 256 KB queue";
}

}  // namespace
}  // namespace vedr::net
