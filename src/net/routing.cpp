#include "net/routing.h"

#include <deque>
#include <limits>
#include <map>
#include <stdexcept>

#include "sim/rng.h"

namespace vedr::net {

RoutingTable RoutingTable::shortest_paths(const Topology& topo) {
  RoutingTable rt;
  const auto n = topo.size();
  rt.host_index_.assign(n, -1);
  for (std::size_t u = 0; u < n; ++u)
    if (topo.is_host(static_cast<NodeId>(u)))
      rt.host_index_[u] = static_cast<std::int32_t>(rt.num_hosts_++);
  rt.next_hop_.assign(n * rt.num_hosts_, 0);
  rt.sets_.emplace_back();  // set 0: no route
  std::map<std::vector<PortId>, std::uint32_t> set_ids;

  // BFS from each destination host over the undirected link graph; a port at
  // `u` is a next hop toward `dst` when its peer is strictly closer.
  for (NodeId dst : topo.hosts()) {
    std::vector<int> dist(n, std::numeric_limits<int>::max());
    std::deque<NodeId> q;
    dist[static_cast<std::size_t>(dst)] = 0;
    q.push_back(dst);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      const int du = dist[static_cast<std::size_t>(u)];
      for (const auto& port : topo.node(u).ports) {
        // Hosts do not forward transit traffic.
        if (topo.is_host(u) && u != dst) continue;
        const NodeId v = port.peer;
        if (dist[static_cast<std::size_t>(v)] > du + 1) {
          dist[static_cast<std::size_t>(v)] = du + 1;
          q.push_back(v);
        }
      }
    }
    for (std::size_t u = 0; u < n; ++u) {
      if (static_cast<NodeId>(u) == dst) continue;
      if (dist[u] == std::numeric_limits<int>::max()) continue;
      std::vector<PortId> ports;
      const auto& node = topo.node(static_cast<NodeId>(u));
      for (std::size_t p = 0; p < node.ports.size(); ++p) {
        const NodeId v = node.ports[p].peer;
        if (!topo.is_host(v) || v == dst) {
          if (dist[static_cast<std::size_t>(v)] == dist[u] - 1)
            ports.push_back(static_cast<PortId>(p));
        }
      }
      if (ports.empty()) continue;
      auto [it, fresh] = set_ids.try_emplace(ports, 0);
      if (fresh) it->second = rt.add_set(std::move(ports));
      rt.next_hop_[static_cast<std::size_t>(rt.entry_of(static_cast<NodeId>(u), dst))] =
          it->second;
    }
  }
  return rt;
}

std::uint32_t RoutingTable::add_set(std::vector<PortId> ports) {
  sets_.push_back(std::move(ports));
  return static_cast<std::uint32_t>(sets_.size() - 1);
}

std::int64_t RoutingTable::entry_of(NodeId at, NodeId dst) const {
  if (at < 0 || static_cast<std::size_t>(at) >= host_index_.size())
    throw std::out_of_range("routing: node " + std::to_string(at) + " is not in the table");
  if (dst < 0 || static_cast<std::size_t>(dst) >= host_index_.size()) return -1;
  const std::int32_t h = host_index_[static_cast<std::size_t>(dst)];
  if (h < 0) return -1;
  return static_cast<std::int64_t>(static_cast<std::size_t>(at) * num_hosts_ +
                                   static_cast<std::size_t>(h));
}

const std::vector<PortId>& RoutingTable::candidates(NodeId at, NodeId dst) const {
  const std::int64_t e = entry_of(at, dst);
  const std::vector<PortId>* c =
      e < 0 ? &sets_[0] : &sets_[next_hop_[static_cast<std::size_t>(e)]];
  if (c->empty())
    throw std::runtime_error("no route from node " + std::to_string(at) + " to host " +
                             std::to_string(dst));
  return *c;
}

PortId RoutingTable::select(NodeId at, const FlowKey& flow) const {
  const auto& c = candidates(at, flow.dst);
  if (c.size() == 1) return c[0];
  const std::uint64_t h =
      sim::Rng::mix(flow.hash(), static_cast<std::uint64_t>(static_cast<std::uint32_t>(at)));
  return c[h % c.size()];
}

void RoutingTable::override_route(NodeId at, NodeId dst, std::vector<PortId> ports) {
  const std::int64_t e = entry_of(at, dst);
  if (e < 0)
    throw std::invalid_argument("override_route: node " + std::to_string(dst) +
                                " is not a host");
  next_hop_[static_cast<std::size_t>(e)] = ports.empty() ? 0 : add_set(std::move(ports));
}

std::vector<NodeId> RoutingTable::path_of(const Topology& topo, const FlowKey& flow) const {
  std::vector<NodeId> path{flow.src};
  NodeId cur = flow.src;
  // Bounded walk to survive (intentionally) looped tables.
  for (std::size_t guard = 0; guard < 4 * topo.size() && cur != flow.dst; ++guard) {
    const PortId p = select(cur, flow);
    cur = topo.node(cur).ports.at(static_cast<std::size_t>(p)).peer;
    path.push_back(cur);
  }
  return path;
}

std::vector<PortRef> RoutingTable::port_path_of(const Topology& topo, const FlowKey& flow) const {
  std::vector<PortRef> hops;
  NodeId cur = flow.src;
  for (std::size_t guard = 0; guard < 4 * topo.size() && cur != flow.dst; ++guard) {
    const PortId p = select(cur, flow);
    hops.push_back(PortRef{cur, p});
    cur = topo.node(cur).ports.at(static_cast<std::size_t>(p)).peer;
  }
  return hops;
}

int RoutingTable::hop_count(const Topology& topo, const FlowKey& flow) const {
  return static_cast<int>(port_path_of(topo, flow).size());
}

}  // namespace vedr::net
