#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/spsc_ring.h"
#include "net/packet.h"
#include "net/topology.h"
#include "net/types.h"

namespace vedr::net {

/// Deterministic domain decomposition of a fabric for the sharded engine
/// (DESIGN.md §14): which logical domain each node belongs to, and the
/// conservative lookahead those domains can run ahead of each other.
///
/// The decomposition is a pure function of the topology — never of the
/// worker count — so the parallel lane's digest is identical for any
/// `--shards N`: N only chooses how many threads execute the fixed domains.
/// For a K-ary fat-tree the decomposition is one domain per pod (hosts +
/// edge + aggregation switches) plus one domain for the core layer; the
/// only cross-domain links are then agg<->core, and the lookahead is their
/// minimum propagation delay.
struct ShardPlan {
  int num_domains = 1;
  std::vector<int> domain_of;  ///< node id -> domain id
  /// Min delay over cross-domain links; kForever (unbounded) when none.
  Tick lookahead = sim::kForever;

  /// Pod-based plan for a fat-tree built by make_fat_tree(). For any other
  /// topology (no "h<pod>."/"edge"/"agg"/"core" node names) returns the
  /// trivial single-domain plan.
  static ShardPlan for_topology(const Topology& topo);

  /// The trivial plan: every node in domain 0 — the serial lane.
  static ShardPlan single(const Topology& topo);

  bool parallel() const { return num_domains > 1; }
};

/// One cross-domain packet delivery awaiting the window boundary. The
/// packet travels by value: the sender's pool slot is already free, and the
/// receiver takes a slot in its own pool when it drains the handoff.
struct Handoff {
  Tick arrival = 0;          ///< absolute delivery time at the destination
  std::uint64_t seq = 0;     ///< per-(src,dst) monotonic sequence
  std::uint16_t src_domain = 0;
  NodeId node = kInvalidNode;  ///< destination device
  PortId port = kInvalidPort;  ///< ingress port at the destination
  Packet pkt;
};

/// The handoff lanes between D domains: a lock-free SPSC ring per ordered
/// (src, dst) pair that a link joins, plus producer-owned sequence counters.
/// Producers push eagerly during their window; each consumer drains at its
/// window boundary and sorts by (arrival, src domain, seq) — the documented
/// cross-shard ordering contract that makes the merge independent of worker
/// scheduling.
class HandoffMatrix {
 public:
  /// `plan` must be built for `topo`.
  HandoffMatrix(const ShardPlan& plan, const Topology& topo);

  /// Producer side (src domain's worker): assigns the pair sequence number
  /// and publishes. Never blocks, never drops (ring spill under a mutex).
  /// A link must join the two domains.
  void push(int src_domain, int dst_domain, Tick arrival, NodeId node, PortId port,
            Packet pkt);

  /// Consumer side (dst domain's worker, at its window boundary): drains
  /// every inbound lane into `out` and sorts by (arrival, src, seq).
  /// Returns the number of handoffs drained.
  std::size_t drain(int dst_domain, std::vector<Handoff>& out);

  /// Total handoffs pushed (quiesced introspection for tests/bench).
  std::uint64_t total() const;

  /// One entry per ordered (src, dst) pair that carried at least one handoff:
  /// handoffs pushed (the producer-owned per-pair sequence doubles as the
  /// count), ring overflow spills, and the ring-occupancy peak. Quiesced
  /// introspection for the shard report.
  struct LaneStats {
    int src = 0;
    int dst = 0;
    std::uint64_t pushed = 0;
    std::uint64_t spills = 0;
    std::size_t ring_peak = 0;
  };
  std::vector<LaneStats> lane_stats() const;

 private:
  std::size_t index(int src, int dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(num_domains_) +
           static_cast<std::size_t>(dst);
  }

  int num_domains_;
  /// [src*D + dst]; null for a pair no link joins.
  std::vector<std::unique_ptr<common::SpscRing<Handoff>>> rings_;
  /// Producer-owned counters, cache-line padded per src domain.
  struct alignas(64) SeqRow {
    std::vector<std::uint64_t> next_seq;  ///< per dst
    std::uint64_t pushed = 0;
  };
  std::vector<std::unique_ptr<SeqRow>> seq_rows_;  ///< [src]
};

}  // namespace vedr::net
