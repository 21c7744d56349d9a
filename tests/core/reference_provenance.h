#pragma once

// Reference implementation of the provenance graph and signature classifier
// as they existed before the flat interned rewrite: nested unordered_map
// storage, composite-key hashing on every query. Kept verbatim (modulo
// inlining) as the behavioural oracle for the randomized property test in
// provenance_property_test.cpp. Do not "optimize" this file — its value is
// that it computes the answers the slow, obviously-correct way.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/diagnosis.h"
#include "net/packet.h"
#include "net/topology.h"
#include "net/types.h"
#include "telemetry/records.h"

namespace vedr::refimpl {

using net::FlowKey;
using net::FlowKeyHash;
using net::PortRef;
using net::PortRefHash;

class ProvenanceGraph {
 public:
  explicit ProvenanceGraph(const net::Topology* topo) : topo_(topo) {}

  void add_report(const telemetry::SwitchReport& report) {
    ++reports_seen_;
    finalized_ = false;
    for (const auto& pr : report.ports) {
      PortData& pd = port_reports_[pr.port];
      if (pr.poll_time >= pd.report.poll_time) pd.report = pr;
      pd.max_qdepth_pkts = std::max(pd.max_qdepth_pkts, pr.qdepth_pkts);
      pd.max_qdepth_bytes = std::max(pd.max_qdepth_bytes, pr.qdepth_bytes);
      if (pr.currently_paused || !pr.pauses.empty()) pd.saw_pause = true;
      for (const auto& fe : pr.flows) {
        auto& cur = pd.flow_entries[fe.flow];
        if (fe.pkts >= cur.pkts) cur = fe;
      }
      for (const auto& we : pr.waits) {
        auto& w = pd.waits[we.waiter][we.ahead];
        w = std::max(w, we.weight);
      }
      for (const auto& me : pr.meters) {
        auto& m = pd.meters[me.in_port];
        m = std::max(m, me.bytes);
      }
    }
    for (const auto& cause : report.causes) causes_.push_back(cause);
    for (const auto& drop : report.drops) {
      bool merged = false;
      for (auto& existing : drops_) {
        if (existing.flow == drop.flow && existing.port == drop.port) {
          if (drop.count > existing.count) existing = drop;
          merged = true;
          break;
        }
      }
      if (!merged) drops_.push_back(drop);
    }
  }

  void finalize() {
    if (finalized_) return;
    finalized_ = true;
    pfc_edge_list_.clear();
    pfc_adj_.clear();
    pfc_weights_.clear();
    pfc_contrib_.clear();
    storm_sources_.clear();

    std::unordered_set<std::uint64_t> seen_edges;
    std::unordered_set<std::uint64_t> seen_storms;
    for (const auto& cause : causes_) {
      if (topo_ == nullptr) break;
      const PortRef up = topo_->peer(cause.ingress_port.node, cause.ingress_port.port);
      if (cause.injected) {
        const std::uint64_t k = PortRefHash{}(cause.ingress_port);
        if (seen_storms.insert(k).second) storm_sources_.push_back(cause.ingress_port);
        continue;
      }
      for (const auto& [egress, bytes] : cause.contributions) {
        const PortRef down{cause.ingress_port.node, egress};
        auto& contrib = pfc_contrib_[up][down];
        contrib = std::max(contrib, bytes);
        const std::uint64_t ek =
            PortRefHash{}(up) * 0x9e3779b97f4a7c15ULL ^ PortRefHash{}(down);
        if (!seen_edges.insert(ek).second) continue;
        pfc_edge_list_.emplace_back(up, down);
        pfc_adj_[up].push_back(down);

        double w = 1.0;
        auto it = port_reports_.find(down);
        if (it != port_reports_.end() && !it->second.meters.empty()) {
          double total = 0, from_up = 0;
          for (const auto& [in, b] : it->second.meters) {
            total += static_cast<double>(b);
            if (in == cause.ingress_port.port) from_up += static_cast<double>(b);
          }
          if (total > 0) w = from_up / total;
        }
        pfc_weights_[up][down] = w;
      }
    }
  }

  std::vector<FlowKey> flows() const {
    std::unordered_set<FlowKey, FlowKeyHash> set;
    for (const auto& [port, pd] : port_reports_)
      for (const auto& [key, fe] : pd.flow_entries) set.insert(key);
    std::vector<FlowKey> out(set.begin(), set.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<PortRef> ports() const {
    std::vector<PortRef> out;
    out.reserve(port_reports_.size());
    for (const auto& [port, pd] : port_reports_) out.push_back(port);
    std::sort(out.begin(), out.end());
    return out;
  }

  double flow_port_weight(const FlowKey& f, const PortRef& p) const {
    auto it = port_reports_.find(p);
    if (it == port_reports_.end()) return 0;
    auto w = it->second.waits.find(f);
    if (w == it->second.waits.end()) return 0;
    double sum = 0;
    for (const auto& [ahead, weight] : w->second) sum += static_cast<double>(weight);
    return sum;
  }

  double pair_weight(const PortRef& p, const FlowKey& waiter, const FlowKey& ahead) const {
    auto it = port_reports_.find(p);
    if (it == port_reports_.end()) return 0;
    auto w = it->second.waits.find(waiter);
    if (w == it->second.waits.end()) return 0;
    auto a = w->second.find(ahead);
    return a == w->second.end() ? 0 : static_cast<double>(a->second);
  }

  double port_flow_weight(const PortRef& p, const FlowKey& f) const {
    auto it = port_reports_.find(p);
    if (it == port_reports_.end()) return 0;
    const PortData& pd = it->second;
    auto fe = pd.flow_entries.find(f);
    if (fe == pd.flow_entries.end()) return 0;
    std::int64_t total_pkts = 0;
    for (const auto& [key, e] : pd.flow_entries) total_pkts += e.pkts;
    if (total_pkts == 0) return 0;
    return static_cast<double>(fe->second.pkts) / static_cast<double>(total_pkts) *
           static_cast<double>(pd.max_qdepth_pkts);
  }

  double port_port_weight(const PortRef& up, const PortRef& down) const {
    auto it = pfc_weights_.find(up);
    if (it == pfc_weights_.end()) return 0;
    auto jt = it->second.find(down);
    return jt == it->second.end() ? 0 : jt->second;
  }

  std::int64_t port_port_contribution(const PortRef& up, const PortRef& down) const {
    auto it = pfc_contrib_.find(up);
    if (it == pfc_contrib_.end()) return 0;
    auto jt = it->second.find(down);
    return jt == it->second.end() ? 0 : jt->second;
  }

  std::vector<PortRef> ports_waited_by(const FlowKey& f) const {
    std::vector<PortRef> out;
    for (const auto& [port, pd] : port_reports_) {
      auto it = pd.waits.find(f);
      if (it != pd.waits.end() && !it->second.empty()) out.push_back(port);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<FlowKey> waiters_at(const PortRef& p) const {
    std::vector<FlowKey> out;
    auto it = port_reports_.find(p);
    if (it == port_reports_.end()) return out;
    for (const auto& [waiter, row] : it->second.waits)
      if (!row.empty()) out.push_back(waiter);
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<FlowKey> flows_at(const PortRef& p) const {
    std::vector<FlowKey> out;
    auto it = port_reports_.find(p);
    if (it == port_reports_.end()) return out;
    for (const auto& [key, fe] : it->second.flow_entries) out.push_back(key);
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<PortRef> pfc_downstream(const PortRef& up) const {
    auto it = pfc_adj_.find(up);
    return it == pfc_adj_.end() ? std::vector<PortRef>{} : it->second;
  }

  const std::vector<PortRef>& storm_sources() const { return storm_sources_; }
  const std::vector<telemetry::DropEntry>& drops() const { return drops_; }

  bool host_facing(const PortRef& p) const {
    if (topo_ == nullptr) return false;
    return topo_->is_host(topo_->peer(p.node, p.port).node);
  }

  bool port_paused_recently(const PortRef& p) const {
    auto it = port_reports_.find(p);
    if (it == port_reports_.end()) return false;
    return it->second.saw_pause || it->second.report.currently_paused ||
           !it->second.report.pauses.empty();
  }

  PortRef peer_of(const PortRef& p) const {
    if (topo_ == nullptr) return PortRef{};
    return topo_->peer(p.node, p.port);
  }

  double contribution_to_port(const FlowKey& f, const PortRef& p) const {
    std::unordered_set<PortRef, PortRefHash> visiting;
    return contribution_to_port_impl(f, p, visiting);
  }

  double contribution_to_flow(const FlowKey& f, const FlowKey& cf) const {
    double total = 0;
    for (const PortRef& pk : ports_waited_by(cf)) {
      const bool contend_here = flow_port_weight(f, pk) > 0;
      const double w_cf_fi = pair_weight(pk, cf, f);
      const double w_pk_fi = port_flow_weight(pk, f);
      total += (contend_here ? (w_cf_fi - w_pk_fi) : 0.0) + contribution_to_port(f, pk);
    }
    return total;
  }

  bool empty() const { return port_reports_.empty(); }

 private:
  struct PortData {
    telemetry::PortReport report;
    std::unordered_map<FlowKey, std::unordered_map<FlowKey, std::int64_t, FlowKeyHash>,
                       FlowKeyHash>
        waits;
    std::unordered_map<FlowKey, telemetry::FlowEntry, FlowKeyHash> flow_entries;
    std::unordered_map<net::PortId, std::int64_t> meters;
    std::int64_t max_qdepth_pkts = 0;
    std::int64_t max_qdepth_bytes = 0;
    bool saw_pause = false;
  };

  double contribution_to_port_impl(const FlowKey& f, const PortRef& p,
                                   std::unordered_set<PortRef, PortRefHash>& visiting) const {
    if (!visiting.insert(p).second) return 0;
    double r = port_flow_weight(p, f);
    auto it = pfc_adj_.find(p);
    if (it != pfc_adj_.end()) {
      for (const PortRef& down : it->second)
        r += contribution_to_port_impl(f, down, visiting) * port_port_weight(p, down);
    }
    visiting.erase(p);
    return r;
  }

  const net::Topology* topo_;
  std::unordered_map<PortRef, PortData, PortRefHash> port_reports_;
  std::vector<telemetry::PauseCauseReport> causes_;
  std::vector<std::pair<PortRef, PortRef>> pfc_edge_list_;
  std::unordered_map<PortRef, std::vector<PortRef>, PortRefHash> pfc_adj_;
  std::unordered_map<PortRef, std::unordered_map<PortRef, double, PortRefHash>, PortRefHash>
      pfc_weights_;
  std::unordered_map<PortRef, std::unordered_map<PortRef, std::int64_t, PortRefHash>,
                     PortRefHash>
      pfc_contrib_;
  std::vector<PortRef> storm_sources_;
  std::vector<telemetry::DropEntry> drops_;
  std::size_t reports_seen_ = 0;
  bool finalized_ = false;
};

/// Key-hashing signature classifier as it operated on the map-based graph.
class SignatureClassifier {
 public:
  explicit SignatureClassifier(double min_pair_weight = 8.0)
      : min_pair_weight_(min_pair_weight) {}

  std::vector<core::AnomalyFinding> classify(
      const ProvenanceGraph& g, const std::unordered_set<FlowKey, FlowKeyHash>& cc_flows,
      int step = -1) const {
    using core::AnomalyFinding;
    using core::AnomalyType;
    std::vector<AnomalyFinding> findings;

    AnomalyFinding contention;
    contention.type = AnomalyType::kFlowContention;
    contention.step = step;
    AnomalyFinding incast;
    incast.type = AnomalyType::kIncast;
    incast.step = step;

    for (const PortRef& p : g.ports()) {
      std::vector<FlowKey> contenders;
      for (const FlowKey& cf : g.waiters_at(p)) {
        if (cc_flows.count(cf) == 0) continue;
        for (const FlowKey& other : g.flows_at(p)) {
          if (cc_flows.count(other) > 0) continue;
          if (g.pair_weight(p, cf, other) >= min_pair_weight_) contenders.push_back(other);
        }
      }
      if (contenders.empty()) continue;
      AnomalyFinding& target = g.host_facing(p) ? incast : contention;
      target.congested_ports.push_back(p);
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

    {
      AnomalyFinding imbalance;
      imbalance.type = AnomalyType::kLoadImbalance;
      imbalance.step = step;
      for (const PortRef& p : g.ports()) {
        if (g.host_facing(p)) continue;
        bool cc_vs_cc = false;
        for (const FlowKey& a : g.waiters_at(p)) {
          if (cc_flows.count(a) == 0) continue;
          for (const FlowKey& b : g.flows_at(p)) {
            if (a == b || cc_flows.count(b) == 0) continue;
            if (g.pair_weight(p, a, b) >= min_pair_weight_ * 16) cc_vs_cc = true;
          }
        }
        if (cc_vs_cc) imbalance.congested_ports.push_back(p);
      }
      if (!imbalance.congested_ports.empty()) {
        sort_unique(imbalance.congested_ports);
        imbalance.root_port = imbalance.congested_ports.front();
        findings.push_back(std::move(imbalance));
      }
    }

    std::unordered_set<PortRef, PortRefHash> chased;
    for (const PortRef& p : g.ports()) {
      if (g.pfc_downstream(p).empty()) continue;
      bool cc_affected = false;
      for (const FlowKey& f : g.flows_at(p)) {
        if (cc_flows.count(f) > 0 &&
            (g.flow_port_weight(f, p) > 0 || g.port_paused_recently(p))) {
          cc_affected = true;
          break;
        }
      }
      if (!cc_affected) continue;
      if (!chased.insert(p).second) continue;

      const ChaseResult cr = chase(g, p);
      AnomalyFinding f;
      f.step = step;
      f.pfc_chain = cr.chain;
      f.congested_ports = cr.chain;

      if (cr.cycle) {
        f.type = AnomalyType::kPfcDeadlock;
        f.root_port = cr.terminal;
      } else {
        PortRef storm{};
        bool is_storm = false;
        for (const PortRef& c : cr.chain) {
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
          f.root_port = cr.terminal;
          for (const FlowKey& fk : g.flows_at(cr.terminal))
            if (cc_flows.count(fk) == 0) f.contending_flows.push_back(fk);
          sort_unique(f.contending_flows);
        }
      }
      findings.push_back(std::move(f));
    }

    {
      AnomalyFinding loop;
      loop.type = AnomalyType::kRoutingLoop;
      loop.step = step;
      for (const auto& d : g.drops()) {
        if (cc_flows.count(d.flow) == 0 && cc_flows.count(net::reverse(d.flow)) == 0)
          continue;
        loop.congested_ports.push_back(d.port);
      }
      if (!loop.congested_ports.empty()) {
        sort_unique(loop.congested_ports);
        loop.root_port = loop.congested_ports.front();
        findings.push_back(std::move(loop));
      }
    }

    if (!g.storm_sources().empty() &&
        std::none_of(findings.begin(), findings.end(), [](const core::AnomalyFinding& f) {
          return f.type == core::AnomalyType::kPfcStorm;
        })) {
      bool cc_pfc = false;
      for (const PortRef& p : g.ports()) {
        if (!g.port_paused_recently(p)) continue;
        for (const FlowKey& fk : g.flows_at(p))
          if (cc_flows.count(fk) > 0) cc_pfc = true;
      }
      if (cc_pfc) {
        AnomalyFinding f;
        f.type = core::AnomalyType::kPfcStorm;
        f.step = step;
        f.root_port = g.storm_sources().front();
        findings.push_back(std::move(f));
      }
    }

    return findings;
  }

 private:
  struct ChaseResult {
    std::vector<PortRef> chain;
    PortRef terminal;
    bool cycle = false;
  };

  static void sort_unique(std::vector<FlowKey>& v) {
    std::sort(v.begin(), v.end(), [](const FlowKey& a, const FlowKey& b) {
      return a.hash() < b.hash();
    });
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }

  static void sort_unique(std::vector<PortRef>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }

  ChaseResult chase(const ProvenanceGraph& g, const PortRef& start) const {
    ChaseResult result;
    std::unordered_set<PortRef, PortRefHash> visited;
    PortRef cur = start;
    result.chain.push_back(cur);
    visited.insert(cur);
    while (true) {
      const auto downs = g.pfc_downstream(cur);
      if (downs.empty()) break;
      PortRef next = downs.front();
      std::int64_t best = -1;
      for (const PortRef& d : downs) {
        const std::int64_t c = g.port_port_contribution(cur, d);
        if (c > best) {
          best = c;
          next = d;
        }
      }
      if (!visited.insert(next).second) {
        result.cycle = true;
        break;
      }
      result.chain.push_back(next);
      cur = next;
    }
    result.terminal = cur;
    return result;
  }

  double min_pair_weight_;
};

}  // namespace vedr::refimpl
