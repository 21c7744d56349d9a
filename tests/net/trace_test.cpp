#include "net/trace.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/host.h"
#include "net/network.h"
#include "sim/sharded_engine.h"

namespace vedr::net {
namespace {

TEST(Tracer, RecordsPacketJourneyAcrossFabric) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  NetConfig cfg;
  const Topology topo = make_fat_tree(4, cfg);
  Network net(engine, ShardPlan::single(topo), topo, cfg);
  const FlowKey key{0, 15, 10, 20};  // cross-pod: 6 links
  std::vector<TraceEvent> journey;   // data packet 0, every hop
  PacketTracer tracer;
  tracer.set_sink([&](const TraceEvent& ev) {
    if (ev.flow == key && ev.seq == 0 && ev.pkt_type == PacketType::kData)
      journey.push_back(ev);
  });
  net.set_domain_tracer(0, &tracer);

  net.host(15).expect_flow(key, 4 * 4096);
  net.host(0).start_flow(key, 4 * 4096);
  sim.run();

  // Packet 0 journey: host tx, then enqueue+dequeue at each of 5 switches,
  // then host rx.
  ASSERT_FALSE(journey.empty());
  EXPECT_EQ(journey.front().kind, TraceEvent::Kind::kHostTx);
  EXPECT_EQ(journey.front().node, 0);
  EXPECT_EQ(journey.back().kind, TraceEvent::Kind::kHostRx);
  EXPECT_EQ(journey.back().node, 15);
  int enq = 0, deq = 0;
  for (const auto& ev : journey) {
    if (ev.kind == TraceEvent::Kind::kSwitchEnqueue) ++enq;
    if (ev.kind == TraceEvent::Kind::kSwitchDequeue) ++deq;
  }
  EXPECT_EQ(enq, 5);
  EXPECT_EQ(deq, 5);
  // Time strictly non-decreasing along the journey.
  for (std::size_t i = 1; i < journey.size(); ++i)
    EXPECT_GE(journey[i].time, journey[i - 1].time);
}

TEST(Tracer, FlowFilterExcludesOthers) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  NetConfig cfg;
  const Topology topo = make_star(4, cfg);
  Network net(engine, ShardPlan::single(topo), topo, cfg);
  const FlowKey watched{0, 3, 10, 20};
  const FlowKey other{1, 3, 11, 21};
  // The filter lives in the sink: keep the watched flow, count the rest
  // (the other flow, and both flows' reverse-keyed ACKs).
  std::vector<TraceEvent> kept;
  int skipped = 0;
  PacketTracer tracer;
  tracer.set_sink([&](const TraceEvent& ev) {
    if (ev.flow == watched) {
      kept.push_back(ev);
    } else {
      ++skipped;
    }
  });
  net.set_domain_tracer(0, &tracer);

  net.host(3).expect_flow(watched, 4096);
  net.host(3).expect_flow(other, 4096);
  net.host(0).start_flow(watched, 4096);
  net.host(1).start_flow(other, 4096);
  sim.run();

  EXPECT_FALSE(kept.empty());
  EXPECT_GT(skipped, 0);
  for (const auto& ev : kept) EXPECT_EQ(ev.flow, watched);
}

TEST(Tracer, DataOnlySkipsAcks) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  NetConfig cfg;
  const Topology topo = make_star(3, cfg);
  Network net(engine, ShardPlan::single(topo), topo, cfg);
  std::vector<TraceEvent> data;
  int control = 0;
  PacketTracer tracer;
  tracer.set_sink([&](const TraceEvent& ev) {
    if (ev.pkt_type == PacketType::kData) {
      data.push_back(ev);
    } else {
      ++control;  // ACKs and the like
    }
  });
  net.set_domain_tracer(0, &tracer);

  const FlowKey key{0, 2, 10, 20};
  net.host(2).expect_flow(key, 4 * 4096);
  net.host(0).start_flow(key, 4 * 4096);
  sim.run();
  EXPECT_FALSE(data.empty());
  EXPECT_GT(control, 0);
  for (const auto& ev : data) EXPECT_EQ(ev.pkt_type, PacketType::kData);
}

TEST(Tracer, DetachedCostsNothing) {
  sim::ShardedEngine engine;
  sim::Simulator& sim = engine.domain(0);
  NetConfig cfg;
  const Topology topo = make_star(3, cfg);
  Network net(engine, ShardPlan::single(topo), topo, cfg);
  EXPECT_EQ(net.tracer(), nullptr);
  const FlowKey key{0, 2, 10, 20};
  net.host(2).expect_flow(key, 4096);
  net.host(0).start_flow(key, 4096);
  sim.run();  // must not crash with no tracer attached
}

}  // namespace
}  // namespace vedr::net
