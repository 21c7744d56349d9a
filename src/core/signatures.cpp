#include "core/signatures.h"

#include <algorithm>

#include "net/packet.h"

namespace vedr::core {

namespace {

/// Queue-ahead packets below this are noise, not contention: a handful of
/// packets queue behind each other at line rate even on a healthy fabric.
constexpr double kMinPairWeight = 8.0;

void sort_unique(std::vector<FlowKey>& v) {
  std::sort(v.begin(), v.end(), [](const FlowKey& a, const FlowKey& b) {
    return a.hash() < b.hash();
  });
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

void sort_unique(std::vector<PortRef>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

SignatureClassifier::ChaseResult SignatureClassifier::chase(const ProvenanceGraph& g,
                                                            std::uint32_t start) const {
  ChaseResult result;
  std::vector<std::uint8_t> visited(g.tables().ports.size(), 0);
  std::uint32_t cur = start;
  result.chain.push_back(cur);
  visited[cur] = 1;
  while (true) {
    const auto& edges = g.pfc_edges_of(cur);
    if (edges.empty()) break;
    // Follow the dominant contributor when the pause fans out: the
    // downstream queue holding the most of this port's halted bytes.
    std::uint32_t next = edges.front().down;
    std::int64_t best = -1;
    for (const ProvenanceGraph::PfcEdge& e : edges) {
      if (e.contrib > best) {
        best = e.contrib;
        next = e.down;
      }
    }
    if (visited[next] != 0) {
      result.cycle = true;
      break;
    }
    visited[next] = 1;
    result.chain.push_back(next);
    cur = next;
  }
  result.terminal = cur;
  return result;
}

std::vector<AnomalyFinding> SignatureClassifier::classify(
    const ProvenanceGraph& g, const std::unordered_set<FlowKey, FlowKeyHash>& cc_flows,
    int step) const {
  FlowIdSet cc;
  cc.build(g.tables().flows, cc_flows);
  return classify(g, cc, step);
}

std::vector<AnomalyFinding> SignatureClassifier::classify(const ProvenanceGraph& g,
                                                          const FlowIdSet& cc_flows,
                                                          int step) const {
  std::vector<AnomalyFinding> findings;
  const auto& flow_tab = g.tables().flows;
  const auto& port_tab = g.tables().ports;
  const std::size_t n_ports = g.port_count();

  // gid -> canonical cell position, for resolving chase terminals to rows.
  std::vector<std::int32_t> cell_pos(port_tab.size(), -1);
  for (std::size_t i = 0; i < n_ports; ++i)
    cell_pos[g.port_gid(i)] = static_cast<std::int32_t>(i);

  // --- Flow contention / incast -------------------------------------------
  // exists p: e(f_i, p) and e(cf, p), f_i != cf (§III-D2 signature 1); we use
  // the direct evidence w(cf, f_i) > threshold — the collective flow's
  // packets actually queued behind f_i's.
  AnomalyFinding contention;
  contention.type = AnomalyType::kFlowContention;
  contention.step = step;
  AnomalyFinding incast;
  incast.type = AnomalyType::kIncast;
  incast.step = step;

  for (std::size_t i = 0; i < n_ports; ++i) {
    std::vector<FlowKey> contenders;
    for (const std::uint32_t cf : g.waiter_ids(i)) {
      if (!cc_flows.contains(cf)) continue;
      for (const std::uint32_t other : g.flow_ids_at(i)) {
        if (cc_flows.contains(other)) continue;
        if (g.pair_weight_ids(i, cf, other) >= kMinPairWeight)
          contenders.push_back(flow_tab.key_of(other));
      }
    }
    if (contenders.empty()) continue;
    AnomalyFinding& target = g.host_facing_port(i) ? incast : contention;
    target.congested_ports.push_back(g.port_at(i));
    target.contending_flows.insert(target.contending_flows.end(), contenders.begin(),
                                   contenders.end());
  }
  for (AnomalyFinding* f : {&contention, &incast}) {
    if (f->contending_flows.empty()) continue;
    sort_unique(f->contending_flows);
    sort_unique(f->congested_ports);
    f->root_port = f->congested_ports.front();
    findings.push_back(std::move(*f));
  }

  // --- Load imbalance ---------------------------------------------------------
  // Collective flows heavily queueing behind *each other* at a fabric port
  // (§II-B anomaly 1): the traffic would fit if ECMP had spread it, so the
  // anomaly is the placement, not another tenant. Host-facing ports are
  // excluded — collective flows legitimately serialize into one NIC.
  {
    AnomalyFinding imbalance;
    imbalance.type = AnomalyType::kLoadImbalance;
    imbalance.step = step;
    for (std::size_t i = 0; i < n_ports; ++i) {
      if (g.host_facing_port(i)) continue;
      bool cc_vs_cc = false;
      for (const std::uint32_t a : g.waiter_ids(i)) {
        if (!cc_flows.contains(a)) continue;
        for (const std::uint32_t b : g.flow_ids_at(i)) {
          if (a == b || !cc_flows.contains(b)) continue;
          if (g.pair_weight_ids(i, a, b) >= kMinPairWeight * 16) cc_vs_cc = true;
        }
      }
      if (cc_vs_cc) imbalance.congested_ports.push_back(g.port_at(i));
    }
    if (!imbalance.congested_ports.empty()) {
      sort_unique(imbalance.congested_ports);
      imbalance.root_port = imbalance.congested_ports.front();
      findings.push_back(std::move(imbalance));
    }
  }

  // --- PFC backpressure / storm / deadlock ----------------------------------
  // exists p: e(cf, p) and e(p, p_j): the collective flow stalls at a port
  // that is itself halted by downstream PAUSE frames; trace the spreading
  // path to its root (§III-D2 signature 2).
  std::vector<std::uint8_t> chased(port_tab.size(), 0);
  for (std::size_t i = 0; i < n_ports; ++i) {
    const std::uint32_t gid = g.port_gid(i);
    if (g.pfc_edges_of(gid).empty()) continue;
    bool cc_affected = false;
    for (const std::uint32_t f : g.flow_ids_at(i)) {
      if (cc_flows.contains(f) &&
          (g.flow_port_weight_ids(i, f) > 0 || g.paused_recently_port(i))) {
        cc_affected = true;
        break;
      }
    }
    if (!cc_affected) continue;
    if (chased[gid] != 0) continue;
    chased[gid] = 1;

    const ChaseResult cr = chase(g, gid);
    AnomalyFinding f;
    f.step = step;
    f.pfc_chain.reserve(cr.chain.size());
    for (const std::uint32_t c : cr.chain) f.pfc_chain.push_back(port_tab.key_of(c));
    f.congested_ports = f.pfc_chain;

    if (cr.cycle) {
      f.type = AnomalyType::kPfcDeadlock;
      f.root_port = port_tab.key_of(cr.terminal);
    } else {
      // A storm source along the chain means the PAUSE frames that halted a
      // chain port were injected (no buffer pressure behind them); otherwise
      // genuine backpressure rooted at the terminal congestion port. The
      // injector port is the link peer of the port it halted.
      PortRef storm{};
      bool is_storm = false;
      for (const PortRef& c : f.pfc_chain) {
        const PortRef pauser = g.peer_of(c);
        for (const PortRef& src : g.storm_sources()) {
          if (src == pauser) {
            is_storm = true;
            storm = src;
            break;
          }
        }
        if (is_storm) break;
      }
      if (is_storm) {
        f.type = AnomalyType::kPfcStorm;
        f.root_port = storm;
      } else {
        f.type = AnomalyType::kPfcBackpressure;
        f.root_port = port_tab.key_of(cr.terminal);
        // The flows feeding the terminal port are the culprits.
        const std::int32_t tpos = cell_pos[cr.terminal];
        if (tpos >= 0) {
          for (const std::uint32_t fk : g.flow_ids_at(static_cast<std::size_t>(tpos)))
            if (!cc_flows.contains(fk)) f.contending_flows.push_back(flow_tab.key_of(fk));
        }
        sort_unique(f.contending_flows);
      }
    }
    findings.push_back(std::move(f));
  }

  // --- Routing loop ----------------------------------------------------------
  // TTL-expiry drops for a collective flow are the loop tell-tale: packets
  // revisited switches until their TTL ran out (§II-B anomaly 2). Root is
  // the egress inside the loop where the expiry landed.
  {
    AnomalyFinding loop;
    loop.type = AnomalyType::kRoutingLoop;
    loop.step = step;
    for (const auto& d : g.drops()) {
      // Forward direction, or the collective's returning ACK stream — both
      // only expire when the fabric loops. Drop keys are matched through the
      // raw cc set: a reversed ACK key never reaches the intern tables.
      if (!cc_flows.contains_key(d.flow) && !cc_flows.contains_key(net::reverse(d.flow)))
        continue;
      loop.congested_ports.push_back(d.port);
    }
    if (!loop.congested_ports.empty()) {
      sort_unique(loop.congested_ports);
      loop.root_port = loop.congested_ports.front();
      findings.push_back(std::move(loop));
    }
  }

  // Storm with no chase chain established (e.g. the upstream port snapshot
  // alone revealed the injected cause).
  if (!g.storm_sources().empty() &&
      std::none_of(findings.begin(), findings.end(), [](const AnomalyFinding& f) {
        return f.type == AnomalyType::kPfcStorm;
      })) {
    bool cc_pfc = false;
    for (std::size_t i = 0; i < n_ports; ++i) {
      if (!g.paused_recently_port(i)) continue;
      for (const std::uint32_t fk : g.flow_ids_at(i))
        if (cc_flows.contains(fk)) cc_pfc = true;
    }
    if (cc_pfc) {
      AnomalyFinding f;
      f.type = AnomalyType::kPfcStorm;
      f.step = step;
      f.root_port = g.storm_sources().front();
      findings.push_back(std::move(f));
    }
  }

  return findings;
}

}  // namespace vedr::core
