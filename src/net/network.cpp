#include "net/network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "net/events.h"
#include "net/host.h"
#include "net/switch.h"
#include "sim/sharded_engine.h"

namespace vedr::net {

Network::Network(sim::ShardedEngine& engine, const ShardPlan& plan, const Topology& topo,
                 NetConfig cfg, DcqcnParams dcqcn)
    : cfg_(cfg),
      dcqcn_(dcqcn),
      topo_(topo),
      routing_(RoutingTable::shortest_paths(topo)),
      plan_(plan),
      engine_(engine) {
  VEDR_CHECK(plan_.num_domains == engine.num_domains(),
             "ShardPlan and ShardedEngine disagree on domain count");
  VEDR_CHECK(engine.lookahead() <= plan_.lookahead,
             "engine lookahead exceeds the plan's cross-domain minimum");
  VEDR_CHECK(plan_.domain_of.size() == topo_.size(), "ShardPlan built for another topology");
  dcqcn_.line_rate_gbps = cfg_.link_gbps;
  swift_.line_rate_gbps = cfg_.link_gbps;
  handoffs_ = std::make_unique<HandoffMatrix>(plan_, topo_);
  ctxs_.reserve(static_cast<std::size_t>(plan_.num_domains));
  for (int d = 0; d < plan_.num_domains; ++d) {
    auto ctx = std::make_unique<DomainCtx>();
    ctx->sim = &engine.domain(d);
    ctx->stats = std::make_unique<sim::StatsRegistry>();
    register_net_event_handlers(*ctx->sim);
    ctx->sim->set_stats(ctx->stats.get());  // kernel self-observation (sim.dispatch_ns)
    ctxs_.push_back(std::move(ctx));
  }
  init_devices();
  engine.set_drain_hook([this](int d) { drain_domain(d); });
}

void Network::init_devices() {
  devices_.reserve(topo_.size());
  for (std::size_t i = 0; i < topo_.size(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    // Construct each device scoped to its domain so constructor-time stats
    // interning (queue cells, monitor cells) lands in the domain-local
    // registry the device will write at runtime.
    sim::ShardScope scope(domain_of(id));
    if (topo_.is_host(id)) {
      devices_.push_back(std::make_unique<Host>(*this, id));
    } else {
      devices_.push_back(std::make_unique<Switch>(
          *this, id, static_cast<int>(topo_.node(id).ports.size())));
    }
  }
}

Network::~Network() {
  // The engine may outlive us (it is constructed first); detach the hook
  // that captures `this`.
  engine_.set_drain_hook(nullptr);
  for (auto& c : ctxs_) c->sim->set_stats(nullptr);  // registries die with us
}

void Network::set_handler_all(sim::EventKind kind, sim::EventHandler fn) {
  for (auto& c : ctxs_) c->sim->set_handler(kind, fn);
}

void Network::merge_domain_stats() {
  for (std::size_t d = 1; d < ctxs_.size(); ++d)
    ctxs_[0]->stats->merge_from(*ctxs_[d]->stats);
}

Tick Network::latest_now() const {
  Tick latest = 0;
  for (const auto& c : ctxs_) latest = std::max(latest, c->sim->now());
  return latest;
}

void Network::fill_shard_report(sim::ShardReport& out) const {
  out.lanes.clear();
  for (const auto& l : handoffs_->lane_stats())
    out.lanes.push_back({l.src, l.dst, l.pushed, l.spills, l.ring_peak});
}

void Network::drain_domain(int domain) {
  // Runs on the domain's worker with ShardScope(domain) active, after the
  // window-B barrier — every handoff pushed in the previous window is
  // visible. Each packet takes a slot in this domain's pool just before its
  // delivery is scheduled, in the (arrival, src, seq) order of the drain.
  DomainCtx& c = *ctxs_[static_cast<std::size_t>(domain)];
  c.scratch.clear();
  if (handoffs_->drain(domain, c.scratch) == 0) return;
  for (Handoff& h : c.scratch) {
    Device* dev = devices_[static_cast<std::size_t>(h.node)].get();
    c.sim->schedule_event_at(h.arrival, sim::EventKind::kPacketDelivery,
                             {dev, c.pool.acquire(std::move(h.pkt)),
                              static_cast<std::uint64_t>(h.port)});
  }
}

Host& Network::host(NodeId id) {
  if (!topo_.is_host(id)) throw std::invalid_argument("node is not a host");
  return static_cast<Host&>(*devices_.at(static_cast<std::size_t>(id)));
}

Switch& Network::switch_at(NodeId id) {
  if (topo_.is_host(id)) throw std::invalid_argument("node is not a switch");
  return static_cast<Switch&>(*devices_.at(static_cast<std::size_t>(id)));
}

void Network::deliver(NodeId from, PortId out_port, Packet pkt) {
  deliver_ref(from, out_port, pool().acquire(std::move(pkt)));
}

void Network::deliver_ref(NodeId from, PortId out_port, PacketRef ref) {
  const Topology::Port& link = topo_.port(from, out_port);
  const PortRef peer{link.peer, link.peer_port};
  const Tick delay = link.delay;
  const int src = sim::current_domain();
  DomainCtx& c = *ctxs_[static_cast<std::size_t>(src)];
  ++c.packets_delivered;
  const int dst = domain_of(peer.node);
  if (dst != src) {
    // Cross-domain: the packet rides the handoff matrix by value and this
    // domain's slot is free at once; the destination merges it at its next
    // window boundary. The conservative window guarantees the arrival time
    // is at or beyond every in-flight window's end.
    handoffs_->push(src, dst, c.sim->now() + delay, peer.node, peer.port,
                    std::move(c.pool.at(ref)));
    c.pool.release(ref);
    return;
  }
  Device* dev = devices_.at(static_cast<std::size_t>(peer.node)).get();
  c.sim->schedule_event_in(delay, sim::EventKind::kPacketDelivery,
                           {dev, ref, static_cast<std::uint64_t>(peer.port)});
}

void Network::deliver_pfc(NodeId from, PortId out_port, Priority prio, bool pause) {
  Packet pkt;
  pkt.type = PacketType::kPfcPause;
  pkt.prio = Priority::kControl;
  pkt.size = cfg_.control_pkt_bytes;
  pkt.sent_time = sim().now();
  pkt.meta = PauseInfo{prio, pause};
  deliver(from, out_port, std::move(pkt));
}

Tick Network::base_rtt(const FlowKey& flow) const {
  const auto hops = routing_.port_path_of(topo_, flow);
  Tick fwd = 0, rev = 0;
  for (const auto& h : hops) {
    const auto& p = topo_.port(h.node, h.port);
    fwd += p.delay + sim::transmission_delay(cfg_.mtu_bytes + cfg_.header_bytes, p.gbps);
    rev += p.delay + sim::transmission_delay(cfg_.control_pkt_bytes, p.gbps);
  }
  return fwd + rev;
}

Tick Network::ideal_fct(const FlowKey& flow, std::int64_t bytes) const {
  const auto hops = routing_.port_path_of(topo_, flow);
  double min_gbps = cfg_.link_gbps;
  Tick prop = 0;
  for (const auto& h : hops) {
    const auto& p = topo_.port(h.node, h.port);
    min_gbps = std::min(min_gbps, p.gbps);
    prop += p.delay;
  }
  const std::int64_t n_pkts = (bytes + cfg_.mtu_bytes - 1) / cfg_.mtu_bytes;
  const std::int64_t wire_bytes = bytes + n_pkts * cfg_.header_bytes;
  return prop + sim::transmission_delay(wire_bytes, min_gbps) + base_rtt(flow);
}

}  // namespace vedr::net
