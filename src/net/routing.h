#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.h"
#include "net/types.h"

namespace vedr::net {

/// Per-device ECMP next-hop tables toward every host, computed by BFS over
/// the topology. Route overrides support the loop / load-imbalance anomaly
/// scenarios (§II-B).
///
/// Storage is one flat array indexed by (node, destination host), sized
/// nodes x hosts, whose entries name a candidate set. Equal sets are stored
/// once (in a fat-tree most destinations of a switch share its uplinks), so
/// a lookup is two array reads and memory is 4 bytes per (node, host).
class RoutingTable {
 public:
  static RoutingTable shortest_paths(const Topology& topo);

  /// ECMP selection: deterministic hash of the flow key salted with the
  /// current node, as commodity switches do. Throws if dst is unreachable.
  PortId select(NodeId at, const FlowKey& flow) const;

  /// All equal-cost candidate egress ports at `at` toward `dst`. Throws
  /// std::out_of_range for a node outside the table and std::runtime_error
  /// when `dst` is not a reachable host.
  const std::vector<PortId>& candidates(NodeId at, NodeId dst) const;

  /// Replaces the candidate set (loop injection, static pinning). `dst`
  /// must be a host of the table's topology (std::invalid_argument).
  void override_route(NodeId at, NodeId dst, std::vector<PortId> ports);

  /// The exact device path a flow takes from src to dst (inclusive of both
  /// hosts), resolving ECMP the same way the switches will.
  std::vector<NodeId> path_of(const Topology& topo, const FlowKey& flow) const;

  /// The (node, egress port) hops a flow traverses, excluding the final host.
  std::vector<PortRef> port_path_of(const Topology& topo, const FlowKey& flow) const;

  /// Hop count (number of links) between two hosts for this flow key.
  int hop_count(const Topology& topo, const FlowKey& flow) const;

 private:
  /// Index of (at, dst) in next_hop_, or -1 when dst is not a host.
  std::int64_t entry_of(NodeId at, NodeId dst) const;
  std::uint32_t add_set(std::vector<PortId> ports);

  std::size_t num_hosts_ = 0;
  std::vector<std::int32_t> host_index_;    ///< node -> dense host index; -1: switch
  std::vector<std::uint32_t> next_hop_;     ///< [at * num_hosts_ + host index] -> set id
  std::vector<std::vector<PortId>> sets_;   ///< candidate sets; sets_[0] is empty (no route)
};

}  // namespace vedr::net
