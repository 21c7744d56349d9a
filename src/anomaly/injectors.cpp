#include "anomaly/injectors.h"

#include <stdexcept>

#include "common/check.h"
#include "net/host.h"
#include "net/switch.h"
#include "obs/log.h"

namespace vedr::anomaly {

void inject_flow(net::Network& net, const InjectedFlow& flow,
                 std::function<void(Tick)> on_complete) {
  VEDR_LOG_DEBUG("anomaly", "inject flow %s: %lld bytes at t=%lld", flow.key.str().c_str(),
                 static_cast<long long>(flow.bytes), static_cast<long long>(flow.start));
  net.host(flow.key.dst).expect_flow(flow.key, flow.bytes);
  // Schedule on the domain that owns the source host so the trigger (and the
  // flow state it creates) stays on that domain's simulator (serial: the one
  // simulator — identical behavior).
  net.sim_of(flow.key.src).schedule_at(flow.start, [&net, flow, cb = std::move(on_complete)] {
    net.host(flow.key.src).start_flow(
        flow.key, flow.bytes,
        [cb](const net::FlowKey&, Tick t) {
          if (cb) cb(t);
        });
  });
}

net::PortId port_towards(const net::Topology& topo, NodeId from, NodeId to) {
  const auto& ports = topo.node(from).ports;
  for (std::size_t p = 0; p < ports.size(); ++p)
    if (ports[p].peer == to) return static_cast<net::PortId>(p);
  throw std::invalid_argument("nodes are not adjacent");
}

void inject_routing_loop(net::Network& net, NodeId dst, NodeId a, NodeId b, Tick at) {
  VEDR_LOG_DEBUG("anomaly", "inject routing loop %d<->%d for dst %d at t=%lld", a, b, dst,
                 static_cast<long long>(at));
  // The routing table is shared across domains; rewriting it mid-run from one
  // domain would race with every other domain's forwarding decisions.
  VEDR_CHECK(net.num_domains() == 1, "routing-loop injection is single-domain only");
  const net::PortId a_to_b = port_towards(net.topology(), a, b);
  const net::PortId b_to_a = port_towards(net.topology(), b, a);
  net.sim().schedule_at(at, [&net, dst, a, b, a_to_b, b_to_a] {
    net.routing().override_route(a, dst, {a_to_b});
    net.routing().override_route(b, dst, {b_to_a});
  });
}

void pin_clockwise_routes(net::Network& net, const std::vector<NodeId>& ring) {
  const auto& topo = net.topology();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const NodeId sw = ring[i];
    const NodeId next = ring[(i + 1) % ring.size()];
    const net::PortId clockwise = port_towards(topo, sw, next);
    for (NodeId host : topo.hosts()) {
      if (topo.peer(host, 0).node == sw) continue;  // local hosts keep their port
      net.routing().override_route(sw, host, {clockwise});
    }
  }
}

void inject_storm(net::Network& net, const StormSpec& storm) {
  // The target switch is resolved now rather than at fire time: the device
  // table is fixed at Network construction, so the pointer stays valid and
  // the trigger can ride a typed event (flow/routing injectors above keep
  // the schedule_at closure escape hatch — they capture completion callbacks).
  VEDR_LOG_DEBUG("anomaly", "inject PFC storm at %s: start=%lld duration=%lld",
                 storm.port.str().c_str(), static_cast<long long>(storm.start),
                 static_cast<long long>(storm.duration));
  net::Switch& sw = net.switch_at(storm.port.node);
  net.sim_of(storm.port.node)
      .schedule_event_at(storm.start, sim::EventKind::kInjectorTrigger,
                         {&sw, static_cast<std::uint64_t>(storm.duration),
                          static_cast<std::uint64_t>(storm.port.port)});
}

}  // namespace vedr::anomaly
