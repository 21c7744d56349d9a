#include "net/shard.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <utility>

#include "common/check.h"

namespace vedr::net {

namespace {

/// Parses the pod index out of make_fat_tree's node names ("h2.1.0",
/// "edge2.1", "agg2.0"); returns -1 for core switches ("core3") and
/// anything unrecognized.
int pod_of_name(std::string_view name, bool* recognized, bool* is_core) {
  *recognized = false;
  *is_core = false;
  std::string_view rest;
  if (name.substr(0, 4) == "core") {
    *recognized = true;
    *is_core = true;
    return -1;
  } else if (name.substr(0, 4) == "edge") {
    rest = name.substr(4);
  } else if (name.substr(0, 3) == "agg") {
    rest = name.substr(3);
  } else if (name.substr(0, 1) == "h") {
    rest = name.substr(1);
  } else {
    return -1;
  }
  int pod = 0;
  bool any = false;
  for (const char c : rest) {
    if (c == '.') break;
    if (c < '0' || c > '9') return -1;
    pod = pod * 10 + (c - '0');
    any = true;
  }
  if (!any) return -1;
  *recognized = true;
  return pod;
}

}  // namespace

ShardPlan ShardPlan::single(const Topology& topo) {
  ShardPlan plan;
  plan.domain_of.assign(topo.size(), 0);
  return plan;
}

ShardPlan ShardPlan::for_topology(const Topology& topo) {
  ShardPlan plan;
  plan.domain_of.assign(topo.size(), -1);
  int max_pod = -1;
  bool any_core = false;
  for (std::size_t i = 0; i < topo.size(); ++i) {
    bool recognized = false, is_core = false;
    const int pod = pod_of_name(topo.node(static_cast<NodeId>(i)).name, &recognized, &is_core);
    if (!recognized || (!is_core && pod < 0)) return single(topo);  // not a fat-tree
    plan.domain_of[i] = is_core ? -2 : pod;  // core resolved after max_pod is known
    if (!is_core) max_pod = std::max(max_pod, pod);
    any_core |= is_core;
  }
  if (max_pod < 1 || !any_core) return single(topo);  // needs >= 2 pods + a core layer
  const int core_domain = max_pod + 1;
  for (auto& d : plan.domain_of)
    if (d == -2) d = core_domain;
  plan.num_domains = core_domain + 1;

  // Conservative lookahead: the minimum propagation delay over links whose
  // endpoints live in different domains. In a pod-partitioned fat-tree only
  // agg<->core links cross, but the scan is general and doubles as a
  // validation pass: a zero-delay cross link would break the window
  // invariant, so it degrades the plan to serial instead.
  Tick min_cross = std::numeric_limits<Tick>::max();
  for (std::size_t i = 0; i < topo.size(); ++i) {
    const auto& node = topo.node(static_cast<NodeId>(i));
    for (const auto& p : node.ports) {
      if (plan.domain_of[i] == plan.domain_of[static_cast<std::size_t>(p.peer)]) continue;
      min_cross = std::min(min_cross, p.delay);
    }
  }
  if (min_cross == std::numeric_limits<Tick>::max() || min_cross <= 0) return single(topo);
  plan.lookahead = min_cross;
  return plan;
}

HandoffMatrix::HandoffMatrix(const ShardPlan& plan, const Topology& topo)
    : num_domains_(plan.num_domains) {
  VEDR_CHECK(num_domains_ >= 1, "handoff matrix needs at least one domain");
  rings_.resize(static_cast<std::size_t>(num_domains_) * static_cast<std::size_t>(num_domains_));
  // Rings only where a link crosses: a fat-tree's pods meet only at the core
  // domain, so 2(D-1) of the D^2 pairs carry every handoff, and a ring holds
  // 1,024 whole packets.
  for (std::size_t i = 0; i < topo.size(); ++i) {
    const int src = plan.domain_of[i];
    for (const auto& p : topo.node(static_cast<NodeId>(i)).ports) {
      const int dst = plan.domain_of[static_cast<std::size_t>(p.peer)];
      auto& ring = rings_[index(src, dst)];
      if (src != dst && !ring) ring = std::make_unique<common::SpscRing<Handoff>>(1024);
    }
  }
  seq_rows_.reserve(static_cast<std::size_t>(num_domains_));
  for (int s = 0; s < num_domains_; ++s) {
    seq_rows_.push_back(std::make_unique<SeqRow>());
    seq_rows_.back()->next_seq.assign(static_cast<std::size_t>(num_domains_), 0);
  }
}

void HandoffMatrix::push(int src_domain, int dst_domain, Tick arrival, NodeId node,
                         PortId port, Packet pkt) {
  SeqRow& row = *seq_rows_[static_cast<std::size_t>(src_domain)];
  Handoff h;
  h.arrival = arrival;
  h.seq = row.next_seq[static_cast<std::size_t>(dst_domain)]++;
  h.src_domain = static_cast<std::uint16_t>(src_domain);
  h.node = node;
  h.port = port;
  h.pkt = std::move(pkt);
  ++row.pushed;
  auto& ring = rings_[index(src_domain, dst_domain)];
  VEDR_ASSERT(ring != nullptr, "handoff between domains no link joins");
  ring->push(std::move(h));
}

std::size_t HandoffMatrix::drain(int dst_domain, std::vector<Handoff>& out) {
  const std::size_t before = out.size();
  for (int src = 0; src < num_domains_; ++src)
    if (const auto& ring = rings_[index(src, dst_domain)]) ring->drain_into(out);
  // The cross-shard ordering contract: merged handoffs apply in
  // (arrival time, source domain, per-pair sequence) order, so the schedule
  // a destination sees is independent of worker count and thread timing.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end(),
            [](const Handoff& a, const Handoff& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              if (a.src_domain != b.src_domain) return a.src_domain < b.src_domain;
              return a.seq < b.seq;
            });
  return out.size() - before;
}

std::uint64_t HandoffMatrix::total() const {
  std::uint64_t n = 0;
  for (const auto& row : seq_rows_) n += row->pushed;
  return n;
}

std::vector<HandoffMatrix::LaneStats> HandoffMatrix::lane_stats() const {
  std::vector<LaneStats> out;
  for (int src = 0; src < num_domains_; ++src) {
    const SeqRow& row = *seq_rows_[static_cast<std::size_t>(src)];
    for (int dst = 0; dst < num_domains_; ++dst) {
      if (src == dst) continue;
      const std::uint64_t pushed = row.next_seq[static_cast<std::size_t>(dst)];
      if (pushed == 0) continue;
      const auto& ring = *rings_[index(src, dst)];
      out.push_back({src, dst, pushed, ring.spills(), ring.watermark()});
    }
  }
  return out;
}

}  // namespace vedr::net
