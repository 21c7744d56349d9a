#include "net/topology.h"

#include <cassert>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>

namespace vedr::net {

namespace {

/// `prefix` followed by the indices joined with '.', e.g. ("h", {1, 0, 2})
/// -> "h1.0.2". Built by appending: GCC 12 flags `"h" + std::to_string(i)`
/// with a -Wrestrict false positive in Release builds.
std::string node_name(const char* prefix, std::initializer_list<int> indices) {
  std::string name = prefix;
  const char* sep = "";
  for (const int i : indices) {
    name += sep;
    name += std::to_string(i);
    sep = ".";
  }
  return name;
}

}  // namespace

NodeId Topology::add_host(std::string name) {
  nodes_.push_back(Node{true, std::move(name), {}});
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Topology::add_switch(std::string name) {
  nodes_.push_back(Node{false, std::move(name), {}});
  return static_cast<NodeId>(nodes_.size() - 1);
}

std::pair<PortId, PortId> Topology::link(NodeId a, NodeId b, double gbps, Tick delay) {
  if (a == b) throw std::invalid_argument("self link");
  auto& na = nodes_.at(static_cast<std::size_t>(a));
  auto& nb = nodes_.at(static_cast<std::size_t>(b));
  const PortId pa = static_cast<PortId>(na.ports.size());
  const PortId pb = static_cast<PortId>(nb.ports.size());
  na.ports.push_back(Port{b, pb, gbps, delay});
  nb.ports.push_back(Port{a, pa, gbps, delay});
  return {pa, pb};
}

std::vector<NodeId> Topology::hosts() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].is_host) out.push_back(static_cast<NodeId>(i));
  return out;
}

std::vector<NodeId> Topology::switches() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!nodes_[i].is_host) out.push_back(static_cast<NodeId>(i));
  return out;
}

int Topology::num_hosts() const {
  int n = 0;
  for (const auto& node : nodes_)
    if (node.is_host) ++n;
  return n;
}

PortRef Topology::peer(NodeId node_id, PortId port_id) const {
  const Port& p = port(node_id, port_id);
  return PortRef{p.peer, p.peer_port};
}

Topology make_fat_tree(int k, const NetConfig& cfg) {
  if (k < 2 || k % 2 != 0) throw std::invalid_argument("fat-tree k must be even and >= 2");
  Topology topo;
  const int half = k / 2;
  const int n_core = half * half;
  const int n_pods = k;

  // Hosts first so host NodeIds are 0..num_hosts-1 (convenient as addresses).
  std::vector<NodeId> hosts;
  for (int pod = 0; pod < n_pods; ++pod)
    for (int e = 0; e < half; ++e)
      for (int h = 0; h < half; ++h)
        hosts.push_back(topo.add_host(node_name("h", {pod, e, h})));

  std::vector<std::vector<NodeId>> edge(static_cast<std::size_t>(n_pods));
  std::vector<std::vector<NodeId>> agg(static_cast<std::size_t>(n_pods));
  for (int pod = 0; pod < n_pods; ++pod) {
    for (int e = 0; e < half; ++e)
      edge[static_cast<std::size_t>(pod)].push_back(
          topo.add_switch(node_name("edge", {pod, e})));
    for (int a = 0; a < half; ++a)
      agg[static_cast<std::size_t>(pod)].push_back(
          topo.add_switch(node_name("agg", {pod, a})));
  }
  std::vector<NodeId> core;
  for (int c = 0; c < n_core; ++c) core.push_back(topo.add_switch(node_name("core", {c})));

  // Host <-> edge.
  int host_idx = 0;
  for (int pod = 0; pod < n_pods; ++pod)
    for (int e = 0; e < half; ++e)
      for (int h = 0; h < half; ++h)
        topo.link(hosts[static_cast<std::size_t>(host_idx++)],
                  edge[static_cast<std::size_t>(pod)][static_cast<std::size_t>(e)],
                  cfg.link_gbps, cfg.link_delay);

  // Edge <-> agg (full bipartite within pod).
  for (int pod = 0; pod < n_pods; ++pod)
    for (int e = 0; e < half; ++e)
      for (int a = 0; a < half; ++a)
        topo.link(edge[static_cast<std::size_t>(pod)][static_cast<std::size_t>(e)],
                  agg[static_cast<std::size_t>(pod)][static_cast<std::size_t>(a)],
                  cfg.link_gbps, cfg.link_delay);

  // Agg <-> core: agg switch a in each pod connects to cores [a*half, a*half+half).
  for (int pod = 0; pod < n_pods; ++pod)
    for (int a = 0; a < half; ++a)
      for (int c = 0; c < half; ++c)
        topo.link(agg[static_cast<std::size_t>(pod)][static_cast<std::size_t>(a)],
                  core[static_cast<std::size_t>(a * half + c)], cfg.link_gbps, cfg.link_delay);

  return topo;
}

Topology make_chain(int n_switches, const NetConfig& cfg, int hosts_per_end) {
  if (n_switches < 1) throw std::invalid_argument("chain needs >= 1 switch");
  Topology topo;
  std::vector<NodeId> left, right;
  for (int i = 0; i < hosts_per_end; ++i) left.push_back(topo.add_host(node_name("hl", {i})));
  for (int i = 0; i < hosts_per_end; ++i) right.push_back(topo.add_host(node_name("hr", {i})));
  std::vector<NodeId> sw;
  for (int i = 0; i < n_switches; ++i) sw.push_back(topo.add_switch(node_name("s", {i})));
  for (NodeId h : left) topo.link(h, sw.front(), cfg.link_gbps, cfg.link_delay);
  for (NodeId h : right) topo.link(h, sw.back(), cfg.link_gbps, cfg.link_delay);
  for (int i = 0; i + 1 < n_switches; ++i)
    topo.link(sw[static_cast<std::size_t>(i)], sw[static_cast<std::size_t>(i + 1)], cfg.link_gbps,
              cfg.link_delay);
  return topo;
}

Topology make_star(int n_hosts, const NetConfig& cfg) {
  if (n_hosts < 2) throw std::invalid_argument("star needs >= 2 hosts");
  Topology topo;
  std::vector<NodeId> hosts;
  for (int i = 0; i < n_hosts; ++i) hosts.push_back(topo.add_host(node_name("h", {i})));
  const NodeId sw = topo.add_switch("s0");
  for (NodeId h : hosts) topo.link(h, sw, cfg.link_gbps, cfg.link_delay);
  return topo;
}

Topology make_leaf_spine(int n_leaf, int n_spine, int hosts_per_leaf, const NetConfig& cfg) {
  if (n_leaf < 1 || n_spine < 1 || hosts_per_leaf < 1)
    throw std::invalid_argument("bad leaf-spine shape");
  Topology topo;
  std::vector<NodeId> hosts;
  for (int l = 0; l < n_leaf; ++l)
    for (int h = 0; h < hosts_per_leaf; ++h)
      hosts.push_back(topo.add_host(node_name("h", {l, h})));
  std::vector<NodeId> leaf, spine;
  for (int l = 0; l < n_leaf; ++l) leaf.push_back(topo.add_switch(node_name("leaf", {l})));
  for (int s = 0; s < n_spine; ++s) spine.push_back(topo.add_switch(node_name("spine", {s})));
  int hi = 0;
  for (int l = 0; l < n_leaf; ++l)
    for (int h = 0; h < hosts_per_leaf; ++h)
      topo.link(hosts[static_cast<std::size_t>(hi++)], leaf[static_cast<std::size_t>(l)],
                cfg.link_gbps, cfg.link_delay);
  for (int l = 0; l < n_leaf; ++l)
    for (int s = 0; s < n_spine; ++s)
      topo.link(leaf[static_cast<std::size_t>(l)], spine[static_cast<std::size_t>(s)],
                cfg.link_gbps, cfg.link_delay);
  return topo;
}

Topology make_switch_ring(int n_switches, int hosts_per_switch, const NetConfig& cfg) {
  if (n_switches < 3) throw std::invalid_argument("switch ring needs >= 3 switches");
  if (hosts_per_switch < 1) throw std::invalid_argument("need >= 1 host per switch");
  Topology topo;
  std::vector<NodeId> hosts;
  for (int s = 0; s < n_switches; ++s)
    for (int h = 0; h < hosts_per_switch; ++h)
      hosts.push_back(topo.add_host(node_name("h", {s, h})));
  std::vector<NodeId> sw;
  for (int s = 0; s < n_switches; ++s) sw.push_back(topo.add_switch(node_name("s", {s})));
  int hi = 0;
  for (int s = 0; s < n_switches; ++s)
    for (int h = 0; h < hosts_per_switch; ++h)
      topo.link(hosts[static_cast<std::size_t>(hi++)], sw[static_cast<std::size_t>(s)],
                cfg.link_gbps, cfg.link_delay);
  for (int s = 0; s < n_switches; ++s)
    topo.link(sw[static_cast<std::size_t>(s)], sw[static_cast<std::size_t>((s + 1) % n_switches)],
              cfg.link_gbps, cfg.link_delay);
  return topo;
}

}  // namespace vedr::net
