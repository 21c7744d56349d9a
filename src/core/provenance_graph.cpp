#include "core/provenance_graph.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace vedr::core {

namespace {

constexpr std::uint64_t kAbsent = ~0ULL;

const std::vector<ProvenanceGraph::PfcEdge> kNoEdges{};

}  // namespace

ProvenanceGraph::ProvenanceGraph(const net::Topology* topo)
    : topo_(topo), owned_tables_(std::make_unique<InternTables>()), tables_(owned_tables_.get()) {}

ProvenanceGraph::ProvenanceGraph(const net::Topology* topo, InternTables* tables)
    : topo_(topo), tables_(tables) {}

void ProvenanceGraph::PortCell::reset_for(std::uint32_t new_gid) {
  gid = new_gid;
  max_qdepth_pkts = 0;
  max_qdepth_bytes = 0;
  total_pkts = 0;
  saw_pause = false;
  flow_gids.clear();
  flow_pkts.clear();
  flow_slot.clear();
  waits.clear();
  wait_slot.clear();
  waiters.clear();
  waiter_slot.clear();
  meters.clear();
  sorted_waiters.clear();
  sorted_flows.clear();
}

ProvenanceGraph::PortCell& ProvenanceGraph::claim_cell(std::uint32_t gid) {
  if (gid >= port_slot_.size()) port_slot_.resize(gid + 1, -1);
  std::int32_t idx = port_slot_[gid];
  if (idx < 0) {
    idx = static_cast<std::int32_t>(n_cells_);
    if (n_cells_ == cells_.size()) cells_.emplace_back();
    cells_[n_cells_].reset_for(gid);
    ++n_cells_;
    port_slot_[gid] = idx;
  }
  return cells_[static_cast<std::size_t>(idx)];
}

const ProvenanceGraph::PortCell* ProvenanceGraph::cell_of_gid(std::uint32_t gid) const {
  if (gid >= port_slot_.size()) return nullptr;
  const std::int32_t idx = port_slot_[gid];
  return idx < 0 ? nullptr : &cells_[static_cast<std::size_t>(idx)];
}

std::int32_t ProvenanceGraph::pfc_node_of(std::uint32_t gid) const {
  return gid < pfc_node_idx_.size() ? pfc_node_idx_[gid] : -1;
}

void ProvenanceGraph::fold_flow(PortCell& cell, std::uint32_t fid, std::int64_t pkts) {
  const std::uint64_t fresh = cell.flow_gids.size();
  std::uint64_t& slot = cell.flow_slot.insert_or_get(fid, fresh);
  if (slot == fresh) {
    cell.flow_gids.push_back(fid);
    cell.flow_pkts.push_back(0);
  }
  std::int64_t& cur = cell.flow_pkts[slot];
  if (pkts >= cur) {
    cell.total_pkts += pkts - cur;
    cur = pkts;
  }
}

void ProvenanceGraph::fold_wait(PortCell& cell, std::uint32_t wid, std::uint32_t aid,
                                std::int64_t weight) {
  const std::uint64_t fresh = cell.waits.size();
  std::uint64_t& slot = cell.wait_slot.insert_or_get(common::pack_u32_pair(wid, aid), fresh);
  std::uint32_t waiter_pos;
  if (slot == fresh) {
    cell.waits.push_back(WaitCell{wid, aid, 0});
    const std::uint64_t wfresh = cell.waiters.size();
    std::uint64_t& wslot = cell.waiter_slot.insert_or_get(wid, wfresh);
    if (wslot == wfresh) cell.waiters.push_back(WaiterCell{wid, 0});
    waiter_pos = static_cast<std::uint32_t>(wslot);
  } else {
    waiter_pos = static_cast<std::uint32_t>(*cell.waiter_slot.find(wid));
  }
  WaitCell& wc = cell.waits[slot];
  const std::int64_t merged = std::max(wc.weight, weight);
  cell.waiters[waiter_pos].weight_sum += merged - wc.weight;
  wc.weight = merged;
}

void ProvenanceGraph::fold_meter(PortCell& cell, net::PortId in_port, std::int64_t bytes) {
  for (auto& mc : cell.meters) {
    if (mc.in_port == in_port) {
      mc.bytes = std::max(mc.bytes, bytes);
      return;
    }
  }
  cell.meters.push_back(MeterCell{in_port, bytes});
}

void ProvenanceGraph::fold_drop(const telemetry::DropEntry& drop) {
  // Keep the freshest record per (flow, port); counts are cumulative.
  for (auto& existing : drops_) {
    if (existing.flow == drop.flow && existing.port == drop.port) {
      if (drop.count > existing.count) existing = drop;
      return;
    }
  }
  drops_.push_back(drop);
}

void ProvenanceGraph::add_report(const telemetry::SwitchReport& report, std::uint64_t arrival) {
  ++reports_seen_;
  finalized_ = false;
  for (const auto& pr : report.ports) {
    PortCell& cell = claim_cell(tables_->ports.intern(pr.port));
    // Counters are cumulative: per-entry maxima survive merged reports, and
    // pause evidence latches (a later quiet snapshot must not erase it).
    cell.max_qdepth_pkts = std::max(cell.max_qdepth_pkts, pr.qdepth_pkts);
    cell.max_qdepth_bytes = std::max(cell.max_qdepth_bytes, pr.qdepth_bytes);
    if (pr.paused_evidence()) cell.saw_pause = true;
    for (const auto& fe : pr.flows) fold_flow(cell, tables_->flows.intern(fe.flow), fe.pkts);
    for (const auto& we : pr.waits) {
      const std::uint32_t wid = tables_->flows.intern(we.waiter);
      fold_wait(cell, wid, tables_->flows.intern(we.ahead), we.weight);
    }
    for (const auto& me : pr.meters) fold_meter(cell, me.in_port, me.bytes);
  }
  for (const auto& cause : report.causes) {
    causes_.push_back(CauseCell{cause.ingress_port, cause.injected,
                                static_cast<std::uint32_t>(cause_contribs_.size()),
                                static_cast<std::uint32_t>(cause.contributions.size()),
                                arrival});
    cause_contribs_.insert(cause_contribs_.end(), cause.contributions.begin(),
                           cause.contributions.end());
  }
  for (const auto& drop : report.drops) fold_drop(drop);
}

void ProvenanceGraph::merge(const ProvenanceGraph& other) {
  VEDR_CHECK(other.tables_ == tables_, "merged provenance graphs must share intern tables");
  reports_seen_ += other.reports_seen_;
  finalized_ = false;
  for (std::size_t i = 0; i < other.n_cells_; ++i) {
    const PortCell& src = other.cells_[i];
    PortCell& cell = claim_cell(src.gid);
    cell.max_qdepth_pkts = std::max(cell.max_qdepth_pkts, src.max_qdepth_pkts);
    cell.max_qdepth_bytes = std::max(cell.max_qdepth_bytes, src.max_qdepth_bytes);
    cell.saw_pause = cell.saw_pause || src.saw_pause;
    for (std::size_t k = 0; k < src.flow_gids.size(); ++k)
      fold_flow(cell, src.flow_gids[k], src.flow_pkts[k]);
    for (const WaitCell& wc : src.waits) fold_wait(cell, wc.waiter, wc.ahead, wc.weight);
    for (const MeterCell& mc : src.meters) fold_meter(cell, mc.in_port, mc.bytes);
  }

  // Pause causes: to_dot() and the PFC rows list edges in cause order, so
  // the union interleaves the two arrival-ordered lists back into one.
  const auto base = static_cast<std::uint32_t>(cause_contribs_.size());
  cause_contribs_.insert(cause_contribs_.end(), other.cause_contribs_.begin(),
                         other.cause_contribs_.end());
  const auto mid = static_cast<std::ptrdiff_t>(causes_.size());
  for (CauseCell cause : other.causes_) {
    cause.begin += base;
    causes_.push_back(cause);
  }
  std::inplace_merge(causes_.begin(), causes_.begin() + mid, causes_.end(),
                     [](const CauseCell& a, const CauseCell& b) { return a.arrival < b.arrival; });

  for (const auto& drop : other.drops_) fold_drop(drop);
}

void ProvenanceGraph::reset() {
  n_cells_ = 0;
  std::fill(port_slot_.begin(), port_slot_.end(), -1);
  causes_.clear();
  cause_contribs_.clear();
  drops_.clear();
  reports_seen_ = 0;
  finalized_ = false;
  std::fill(pfc_node_idx_.begin(), pfc_node_idx_.end(), -1);
  pfc_ups_.clear();
  for (auto& edges : pfc_out_) edges.clear();
  pfc_edge_loc_.clear();
  pfc_edge_list_.clear();
  storm_sources_.clear();
  storm_seen_.clear();
  sorted_cells_.clear();
  sorted_flow_ids_.clear();
  waited_cells_.clear();
  waited_row_.clear();
}

void ProvenanceGraph::finalize() {
  if (finalized_) return;
  finalized_ = true;

  // --- PFC spreading graph from the pause causes ---------------------------
  pfc_node_idx_.assign(tables_->ports.size(), -1);
  pfc_ups_.clear();
  for (auto& edges : pfc_out_) edges.clear();
  pfc_edge_loc_.clear();
  pfc_edge_list_.clear();
  storm_sources_.clear();
  storm_seen_.clear();

  for (const CauseCell& cause : causes_) {
    // `cause.ingress` is the (switch, port) that emitted PAUSE frames; the
    // halted upstream egress is its link peer.
    if (topo_ == nullptr) break;
    const PortRef up = topo_->peer(cause.ingress.node, cause.ingress.port);
    if (cause.injected) {
      const std::uint32_t sgid = tables_->ports.intern(cause.ingress);
      std::uint64_t& seen = storm_seen_.insert_or_get(sgid, 0);
      if (seen == 0) {
        seen = 1;
        storm_sources_.push_back(cause.ingress);
      }
      continue;
    }
    const std::uint32_t up_gid = tables_->ports.intern(up);
    if (up_gid >= pfc_node_idx_.size()) pfc_node_idx_.resize(up_gid + 1, -1);
    for (std::uint32_t c = cause.begin; c < cause.begin + cause.count; ++c) {
      const auto& [egress, bytes] = cause_contribs_[c];
      const PortRef down{cause.ingress.node, egress};
      // A port pausing itself is physically impossible; an edge like that
      // means the pause-cause plumbing crossed wires somewhere upstream.
      VEDR_CHECK(!(up == down), "provenance PFC self-edge at ", up.str());
      VEDR_CHECK_GE(bytes, 0, "negative pause-cause contribution at ", down.str());
      const std::uint32_t down_gid = tables_->ports.intern(down);
      std::uint64_t& loc =
          pfc_edge_loc_.insert_or_get(common::pack_u32_pair(up_gid, down_gid), kAbsent);
      if (loc != kAbsent) {
        // Duplicate cause for an existing edge: contributions take the max.
        PfcEdge& e = pfc_out_[common::unpack_hi(loc)][common::unpack_lo(loc)];
        e.contrib = std::max(e.contrib, bytes);
        continue;
      }
      std::int32_t node = pfc_node_idx_[up_gid];
      if (node < 0) {
        node = static_cast<std::int32_t>(pfc_ups_.size());
        pfc_ups_.push_back(up_gid);
        if (static_cast<std::size_t>(node) == pfc_out_.size()) pfc_out_.emplace_back();
        pfc_node_idx_[up_gid] = node;
      }
      auto& edges = pfc_out_[static_cast<std::size_t>(node)];
      loc = common::pack_u32_pair(static_cast<std::uint32_t>(node),
                                  static_cast<std::uint32_t>(edges.size()));
      pfc_edge_list_.emplace_back(up, down);

      // w(p_i, p_j): fraction of p_j's buffered traffic that arrived via the
      // link from p_i, from p_j's ingress meters.
      double w = 1.0;
      const PortCell* down_cell = cell_of_gid(down_gid);
      if (down_cell != nullptr && !down_cell->meters.empty()) {
        double total = 0, from_up = 0;
        for (const MeterCell& mc : down_cell->meters) {
          total += static_cast<double>(mc.bytes);
          if (mc.in_port == cause.ingress.port) from_up += static_cast<double>(mc.bytes);
        }
        if (total > 0) w = from_up / total;
      }
      VEDR_CHECK(w >= 0.0 && w <= 1.0, "PFC edge weight out of [0,1]: ", w, " for ",
                 up.str(), " -> ", down.str());
      edges.push_back(PfcEdge{down_gid, w, bytes});
    }
  }

  // --- sorted rows for the dense-id interface ------------------------------
  const auto& port_tab = tables_->ports;
  const auto& flow_tab = tables_->flows;
  sorted_cells_.resize(n_cells_);
  for (std::uint32_t i = 0; i < n_cells_; ++i) sorted_cells_[i] = i;
  std::sort(sorted_cells_.begin(), sorted_cells_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return port_tab.key_of(cells_[a].gid) < port_tab.key_of(cells_[b].gid);
            });

  const auto by_flow_key = [&](std::uint32_t a, std::uint32_t b) {
    return flow_tab.key_of(a) < flow_tab.key_of(b);
  };
  sorted_flow_ids_.clear();
  for (std::size_t i = 0; i < n_cells_; ++i) {
    PortCell& cell = cells_[i];
    cell.sorted_waiters.clear();
    for (const WaiterCell& wc : cell.waiters) cell.sorted_waiters.push_back(wc.waiter);
    std::sort(cell.sorted_waiters.begin(), cell.sorted_waiters.end(), by_flow_key);
    cell.sorted_flows.assign(cell.flow_gids.begin(), cell.flow_gids.end());
    std::sort(cell.sorted_flows.begin(), cell.sorted_flows.end(), by_flow_key);
    sorted_flow_ids_.insert(sorted_flow_ids_.end(), cell.sorted_flows.begin(),
                            cell.sorted_flows.end());
  }
  std::sort(sorted_flow_ids_.begin(), sorted_flow_ids_.end(), by_flow_key);
  sorted_flow_ids_.erase(std::unique(sorted_flow_ids_.begin(), sorted_flow_ids_.end()),
                         sorted_flow_ids_.end());

  // CSR of flow -> waited cells: gather (waiter, cell) pairs following the
  // canonical port order, then group by waiter keeping that order.
  waited_scratch_.clear();
  for (std::uint32_t ci : sorted_cells_) {
    for (const WaiterCell& wc : cells_[ci].waiters)
      waited_scratch_.emplace_back(wc.waiter, ci);
  }
  std::stable_sort(waited_scratch_.begin(), waited_scratch_.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  waited_cells_.clear();
  waited_row_.clear();
  for (std::size_t i = 0; i < waited_scratch_.size();) {
    const std::uint32_t waiter = waited_scratch_[i].first;
    const std::uint32_t begin = static_cast<std::uint32_t>(waited_cells_.size());
    std::size_t j = i;
    while (j < waited_scratch_.size() && waited_scratch_[j].first == waiter) {
      waited_cells_.push_back(waited_scratch_[j].second);
      ++j;
    }
    waited_row_.insert_or_get(waiter, 0) =
        common::pack_u32_pair(begin, static_cast<std::uint32_t>(j - i));
    i = j;
  }

  VEDR_AUDIT(audit(false));
}

bool ProvenanceGraph::pfc_has_cycle() const {
  check_finalized();
  // Iterative DFS over the port->port PAUSE edges. A cycle here is the
  // deadlock signature (§III-D2); everywhere else the spreading tree must be
  // a DAG.
  std::vector<std::uint8_t> mark(tables_->ports.size(), 0);  // white/grey/black
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  for (const std::uint32_t up : pfc_ups_) {
    if (mark[up] != 0) continue;
    stack.assign(1, {up, 0});
    mark[up] = 1;
    while (!stack.empty()) {
      const std::uint32_t cur = stack.back().first;
      const std::int32_t node = pfc_node_of(cur);
      const std::size_t fanout =
          node < 0 ? 0 : pfc_out_[static_cast<std::size_t>(node)].size();
      if (stack.back().second >= fanout) {
        mark[cur] = 2;
        stack.pop_back();
        continue;
      }
      const std::uint32_t down =
          pfc_out_[static_cast<std::size_t>(node)][stack.back().second++].down;
      std::uint8_t& m = mark[down];
      if (m == 1) return true;
      if (m == 0) {
        m = 1;
        stack.emplace_back(down, 0);
      }
    }
  }
  return false;
}

void ProvenanceGraph::audit(bool expect_dag) const {
  for (std::size_t i = 0; i < n_cells_; ++i) {
    const PortCell& cell = cells_[i];
    const PortRef port = tables_->ports.key_of(cell.gid);
    VEDR_CHECK(port.valid(), "provenance report for an invalid port");
    VEDR_CHECK_GE(cell.max_qdepth_pkts, 0, "negative queue depth reported at ", port.str());
    VEDR_CHECK_GE(cell.max_qdepth_bytes, 0, "negative queue bytes reported at ", port.str());
    for (const WaitCell& wc : cell.waits) {
      VEDR_CHECK(wc.waiter != wc.ahead, "flow waiting on itself in provenance graph: ",
                 tables_->flows.key_of(wc.waiter).str(), " at ", port.str());
      VEDR_CHECK_GE(wc.weight, 0, "negative wait weight at ", port.str());
    }
    for (const MeterCell& mc : cell.meters)
      VEDR_CHECK_GE(mc.bytes, 0, "negative ingress meter at ", port.str(), " ingress ",
                    mc.in_port);
  }
  for (std::size_t node = 0; node < pfc_ups_.size(); ++node) {
    for (const PfcEdge& e : pfc_out_[node]) {
      VEDR_CHECK(std::isfinite(e.weight) && e.weight >= 0.0 && e.weight <= 1.0,
                 "PFC edge weight out of [0,1]: ", e.weight, " for ",
                 tables_->ports.key_of(pfc_ups_[node]).str(), " -> ",
                 tables_->ports.key_of(e.down).str());
    }
  }
  if (expect_dag) {
    VEDR_CHECK(!pfc_has_cycle(),
               "provenance PFC spreading graph has a cycle in a non-deadlock scenario");
  }
}

void ProvenanceGraph::check_finalized() const {
  VEDR_CHECK(finalized_, "provenance graph queried before finalize()");
}

// --- edge weights over one port cell ----------------------------------------
// The one body of each weight: the id queries, the key queries, Eq. 1, Eq. 2
// and to_dot() all read a weight through these.

double ProvenanceGraph::pair_weight_in(const PortCell& cell, std::uint32_t waiter,
                                       std::uint32_t ahead) {
  const std::uint64_t* slot = cell.wait_slot.find(common::pack_u32_pair(waiter, ahead));
  return slot == nullptr ? 0 : static_cast<double>(cell.waits[*slot].weight);
}

double ProvenanceGraph::flow_port_weight_in(const PortCell& cell, std::uint32_t flow) {
  const std::uint64_t* slot = cell.waiter_slot.find(flow);
  return slot == nullptr ? 0 : static_cast<double>(cell.waiters[*slot].weight_sum);
}

double ProvenanceGraph::port_flow_weight_in(const PortCell& cell, std::uint32_t flow) {
  const std::uint64_t* slot = cell.flow_slot.find(flow);
  if (slot == nullptr || cell.total_pkts == 0) return 0;
  return static_cast<double>(cell.flow_pkts[*slot]) / static_cast<double>(cell.total_pkts) *
         static_cast<double>(cell.max_qdepth_pkts);
}

// --- dense-id interface -----------------------------------------------------

const std::vector<ProvenanceGraph::PfcEdge>& ProvenanceGraph::pfc_edges_of(
    std::uint32_t gid) const {
  check_finalized();
  const std::int32_t node = pfc_node_of(gid);
  return node < 0 ? kNoEdges : pfc_out_[static_cast<std::size_t>(node)];
}

std::span<const std::uint32_t> ProvenanceGraph::waited_cells_of(std::uint32_t flow) const {
  check_finalized();
  const std::uint64_t* entry = waited_row_.find(flow);
  if (entry == nullptr) return {};
  return {waited_cells_.data() + common::unpack_hi(*entry), common::unpack_lo(*entry)};
}

// --- key interface: resolve the keys, then ask the id query -----------------

std::size_t ProvenanceGraph::row_of(const PortRef& p) const {
  const std::size_t n = port_count();
  // Rows are in canonical PortRef order, so p resolves by binary search.
  const auto key_of = [this](std::uint32_t c) { return tables_->ports.key_of(cells_[c].gid); };
  const auto it = std::lower_bound(sorted_cells_.begin(), sorted_cells_.end(), p,
                                   [&](std::uint32_t c, const PortRef& k) { return key_of(c) < k; });
  if (it == sorted_cells_.end() || !(key_of(*it) == p)) return n;
  return static_cast<std::size_t>(it - sorted_cells_.begin());
}

std::vector<FlowKey> ProvenanceGraph::flow_keys(const std::vector<std::uint32_t>& ids) const {
  std::vector<FlowKey> out;
  for (const std::uint32_t id : ids) out.push_back(tables_->flows.key_of(id));
  return out;
}

std::vector<FlowKey> ProvenanceGraph::flows() const { return flow_keys(flow_ids()); }

std::vector<PortRef> ProvenanceGraph::ports() const {
  std::vector<PortRef> out(port_count());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = port_at(i);
  return out;
}

// A flow the telemetry never reported resolves to kNone, which no row holds,
// so each id query answers 0 (or nothing) for it.

double ProvenanceGraph::flow_port_weight(const FlowKey& f, const PortRef& p) const {
  const std::size_t i = row_of(p);
  return i == port_count() ? 0 : flow_port_weight_ids(i, tables_->flows.find(f));
}

double ProvenanceGraph::pair_weight(const PortRef& p, const FlowKey& waiter,
                                    const FlowKey& ahead) const {
  const std::size_t i = row_of(p);
  return i == port_count()
             ? 0
             : pair_weight_ids(i, tables_->flows.find(waiter), tables_->flows.find(ahead));
}

double ProvenanceGraph::port_flow_weight(const PortRef& p, const FlowKey& f) const {
  const std::size_t i = row_of(p);
  return i == port_count() ? 0 : port_flow_weight_ids(i, tables_->flows.find(f));
}

const ProvenanceGraph::PfcEdge* ProvenanceGraph::pfc_edge(const PortRef& up,
                                                          const PortRef& down) const {
  const std::uint32_t dg = tables_->ports.find(down);
  for (const PfcEdge& e : pfc_edges_of(tables_->ports.find(up)))
    if (e.down == dg) return &e;
  return nullptr;
}

double ProvenanceGraph::port_port_weight(const PortRef& up, const PortRef& down) const {
  const PfcEdge* e = pfc_edge(up, down);
  return e == nullptr ? 0 : e->weight;
}

std::int64_t ProvenanceGraph::port_port_contribution(const PortRef& up,
                                                     const PortRef& down) const {
  const PfcEdge* e = pfc_edge(up, down);
  return e == nullptr ? 0 : e->contrib;
}

std::vector<PortRef> ProvenanceGraph::ports_waited_by(const FlowKey& f) const {
  std::vector<PortRef> out;
  for (const std::uint32_t c : waited_cells_of(tables_->flows.find(f)))
    out.push_back(tables_->ports.key_of(cells_[c].gid));
  return out;
}

std::vector<FlowKey> ProvenanceGraph::waiters_at(const PortRef& p) const {
  const std::size_t i = row_of(p);
  return i == port_count() ? std::vector<FlowKey>{} : flow_keys(waiter_ids(i));
}

std::vector<FlowKey> ProvenanceGraph::flows_at(const PortRef& p) const {
  const std::size_t i = row_of(p);
  return i == port_count() ? std::vector<FlowKey>{} : flow_keys(flow_ids_at(i));
}

std::vector<PortRef> ProvenanceGraph::pfc_downstream(const PortRef& up) const {
  std::vector<PortRef> out;
  for (const PfcEdge& e : pfc_edges_of(tables_->ports.find(up)))
    out.push_back(tables_->ports.key_of(e.down));
  return out;
}

bool ProvenanceGraph::port_paused_recently(const PortRef& p) const {
  const std::size_t i = row_of(p);
  return i != port_count() && paused_recently_port(i);
}

std::int64_t ProvenanceGraph::qdepth_pkts(const PortRef& p) const {
  const std::size_t i = row_of(p);
  return i == port_count() ? 0 : row(i).max_qdepth_pkts;
}

bool ProvenanceGraph::host_facing(const PortRef& p) const {
  if (topo_ == nullptr) return false;
  return topo_->is_host(topo_->peer(p.node, p.port).node);
}

PortRef ProvenanceGraph::peer_of(const PortRef& p) const {
  if (topo_ == nullptr) return PortRef{};
  return topo_->peer(p.node, p.port);
}

// --- contribution rating ----------------------------------------------------

double ProvenanceGraph::contribution_to_port(const FlowKey& f, const PortRef& p) const {
  check_finalized();
  const std::uint32_t fid = tables_->flows.find(f);
  const std::uint32_t pg = tables_->ports.find(p);
  // An unknown flow has weight 0 at every port, so the recursion would only
  // ever sum zeros.
  if (fid == FlowInterner::kNone || pg == PortInterner::kNone) return 0;
  if (on_path_.size() < tables_->ports.size()) on_path_.resize(tables_->ports.size(), 0);
  return contribution_to_port_ids(fid, pg);
}

double ProvenanceGraph::contribution_to_port_ids(std::uint32_t f, std::uint32_t p_gid) const {
  if (on_path_[p_gid] != 0) return 0;  // PFC cycle (deadlock) guard
  on_path_[p_gid] = 1;
  const PortCell* cell = cell_of_gid(p_gid);
  double r = cell == nullptr ? 0 : port_flow_weight_in(*cell, f);
  const std::int32_t node = pfc_node_of(p_gid);
  if (node >= 0) {
    for (const PfcEdge& e : pfc_out_[static_cast<std::size_t>(node)])
      r += contribution_to_port_ids(f, e.down) * e.weight;
  }
  on_path_[p_gid] = 0;
  return r;
}

double ProvenanceGraph::contribution_to_flow(const FlowKey& f, const FlowKey& cf) const {
  return contribution_to_flow_ids(tables_->flows.find(f), tables_->flows.find(cf));
}

double ProvenanceGraph::contribution_to_flow_ids(std::uint32_t f, std::uint32_t cf) const {
  // P_cf: the ports the collective flow waits on, in canonical order.
  const std::span<const std::uint32_t> waited = waited_cells_of(cf);
  if (f == FlowInterner::kNone || waited.empty()) return 0;
  if (on_path_.size() < tables_->ports.size()) on_path_.resize(tables_->ports.size(), 0);
  double total = 0;
  for (const std::uint32_t c : waited) {
    const PortCell& cell = cells_[c];
    // The correction w(cf, f_i) - w(p_k, f_i) counts only where f_i itself
    // waits: the indicator 1(e(f_i, p_k)).
    const double correction = flow_port_weight_in(cell, f) > 0
                                  ? pair_weight_in(cell, cf, f) - port_flow_weight_in(cell, f)
                                  : 0.0;
    const double r_port = contribution_to_port_ids(f, cell.gid);  // Eq. (1)
    total += correction + r_port;
  }
  return total;
}

std::string ProvenanceGraph::to_dot(
    const std::unordered_set<FlowKey, FlowKeyHash>& cc_flows) const {
  const auto& flow_tab = tables_->flows;
  std::string dot = "digraph provenance {\n";
  const std::size_t n = port_count();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string port = port_at(i).str();
    dot += "  \"" + port + "\" [shape=box];\n";
    for (const std::uint32_t w : waiter_ids(i)) {
      const FlowKey waiter = flow_tab.key_of(w);
      const char* color = cc_flows.count(waiter) > 0 ? "red" : "black";
      dot += "  \"" + waiter.str() + "\" -> \"" + port + "\" [color=" + std::string(color) +
             "];\n";
    }
    for (const std::uint32_t f : flow_ids_at(i)) {
      if (port_flow_weight_ids(i, f) > 0)
        dot += "  \"" + port + "\" -> \"" + flow_tab.key_of(f).str() + "\" [style=dashed];\n";
    }
  }
  for (const auto& [up, down] : pfc_edges())
    dot += "  \"" + up.str() + "\" -> \"" + down.str() + "\" [color=purple,penwidth=2];\n";
  dot += "}\n";
  return dot;
}

}  // namespace vedr::core
