#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/dense_map.h"
#include "common/thread_annotations.h"
#include "core/intern.h"
#include "net/topology.h"
#include "net/types.h"
#include "telemetry/records.h"

namespace vedr::core {

using net::FlowKey;
using net::FlowKeyHash;
using net::PortRef;
using net::PortRefHash;
using net::Tick;

/// Network provenance graph (§III-D1): vertices are flows (F) and ports (P);
/// edges capture packet-level waiting relationships with the paper's weight
/// definitions:
///   e(f, p):  w(f_i, p)   = sum_j w(f_i, f_j), queue-ahead packet counts
///   e(p, f):  w(p, f_i)   = pkt_num(f_i)/pkt_num(p) * qdepth(p)
///   e(p_i,p_j): w(p_i,p_j) = meter(p_i->p_j) / sum_k meter(p_k->p_j)
/// Contribution scores follow Eqs. (1) and (2).
///
/// Data layout: every composite key (FlowKey, PortRef) is hashed exactly once
/// at ingestion, where it is interned to a dense u32 id in the shared
/// InternTables. All interior storage is flat and id-indexed — per-port cells
/// hold parallel arrays merged through integer-keyed open-addressing maps,
/// and finalize() compacts the staging into CSR-style sorted rows (ports by
/// PortRef, per-port waiter/flow rows by FlowKey, flow -> waited-port rows)
/// that the classifier and contributor rating walk with pure array indexing.
/// The key-based query API is preserved for tests and tooling; it resolves
/// the key through the intern table and forwards to the id paths.
///
/// Cleared-not-freed everywhere: reset() keeps every vector's capacity and
/// every probe table, so re-ingesting a same-shaped report stream performs
/// zero heap allocations.
///
/// Threading contract: VEDR_SINGLE_THREADED — staging, finalize(), and the
/// query API are confined to the owning analyzer's thread; the pooled cells
/// and shared InternTables are unsynchronized by design.
class VEDR_SINGLE_THREADED ProvenanceGraph {
 public:
  /// Standalone graph owning private intern tables (tests, ad-hoc tooling).
  explicit ProvenanceGraph(const net::Topology* topo);
  /// Graph sharing the analyzer's intern tables: ids are stable across every
  /// per-step graph and the global graph of one Analyzer.
  ProvenanceGraph(const net::Topology* topo, InternTables* tables);

  ProvenanceGraph(ProvenanceGraph&&) = default;
  ProvenanceGraph& operator=(ProvenanceGraph&&) = default;
  ProvenanceGraph(const ProvenanceGraph&) = delete;
  ProvenanceGraph& operator=(const ProvenanceGraph&) = delete;

  /// Accumulates one switch report. Reports for the same port merge; the
  /// counters are cumulative, so per-entry maxima win. `arrival` numbers the
  /// report in its analyzer's whole stream, so that merge() can restore the
  /// arrival order of pause causes across graphs; the one-argument form
  /// numbers reports in their order of arrival at this graph.
  void add_report(const telemetry::SwitchReport& report, std::uint64_t arrival);
  void add_report(const telemetry::SwitchReport& report) { add_report(report, reports_seen_); }

  /// Folds `other` (which must share this graph's intern tables) into this
  /// graph. The result answers every query exactly as one graph that
  /// ingested both graphs' reports in arrival order would: per-port maxima
  /// and the latched pause, per-flow and per-(waiter, ahead) maxima with
  /// their sums, per-ingress meter maxima, the freshest drop per (flow,
  /// port), and pause causes in report-arrival order. The order of drops()
  /// across the merged graphs is unspecified. Not finalized.
  void merge(const ProvenanceGraph& other);

  /// Resolves pause linkage into port->port edges and builds the sorted
  /// id-indexed rows behind the dense-id interface. Call after all reports.
  void finalize();

  /// Drops all accumulated state but keeps capacities and the shared intern
  /// tables (ids are never recycled), so the next case ingests allocation-free.
  void reset();

  // --- vertices / edges -----------------------------------------------------

  std::vector<FlowKey> flows() const;
  std::vector<PortRef> ports() const;

  /// w(f_i, p): total queue-ahead weight of f_i at port p (0 = no edge).
  double flow_port_weight(const FlowKey& f, const PortRef& p) const;
  /// w(f_i, f_j) at port p (used for the w(cf, f_i) term of Eq. 2).
  double pair_weight(const PortRef& p, const FlowKey& waiter, const FlowKey& ahead) const;
  /// w(p, f_i): the flow's contribution to the port queue.
  double port_flow_weight(const PortRef& p, const FlowKey& f) const;
  /// w(p_i, p_j) for PFC edges; 0 when absent.
  double port_port_weight(const PortRef& up, const PortRef& down) const;
  /// Bytes the pause cause attributed to `down`'s queue when `up` was
  /// halted — the natural ranking for following the dominant spreading path.
  std::int64_t port_port_contribution(const PortRef& up, const PortRef& down) const;

  /// Ports flow f has an e(f, p) edge to (ports where it waited).
  std::vector<PortRef> ports_waited_by(const FlowKey& f) const;
  /// Flows with an e(f, p) edge at port p.
  std::vector<FlowKey> waiters_at(const PortRef& p) const;
  /// Flows observed at port p (have e(p, f) potential).
  std::vector<FlowKey> flows_at(const PortRef& p) const;
  /// Downstream PFC edges from `up` (ports it waits on via PAUSE).
  std::vector<PortRef> pfc_downstream(const PortRef& up) const;
  /// All PFC edges (up -> down).
  const std::vector<std::pair<PortRef, PortRef>>& pfc_edges() const { return pfc_edge_list_; }

  /// Ports where injected (storm) PAUSE causes were reported: the pause was
  /// emitted on this (switch, port) without buffer pressure explaining it.
  const std::vector<PortRef>& storm_sources() const { return storm_sources_; }

  /// TTL-expiry drop records collected from switch reports (loop evidence).
  const std::vector<telemetry::DropEntry>& drops() const { return drops_; }
  /// Drop records for one flow.
  std::vector<telemetry::DropEntry> drops_of(const FlowKey& f) const;

  /// Whether port p is host-facing (its peer is a host) — incast signature.
  bool host_facing(const PortRef& p) const;

  /// Whether the reported snapshot of p shows PFC pause activity.
  bool port_paused_recently(const PortRef& p) const;
  /// Link peer of p (invalid when no topology attached).
  PortRef peer_of(const PortRef& p) const;
  /// Reported queue depth in packets (0 when unreported).
  std::int64_t qdepth_pkts(const PortRef& p) const;

  // --- contribution rating (§III-D3) ---------------------------------------

  /// Eq. (1): R(f_i, p_j) = w(p_j, f_i) + sum_{e(p_j,p_k)} R(f_i, p_k) * w(p_j, p_k).
  double contribution_to_port(const FlowKey& f, const PortRef& p) const;

  /// Eq. (2): contribution of flow f to collective flow cf.
  double contribution_to_flow(const FlowKey& f, const FlowKey& cf) const;

  bool empty() const { return n_cells_ == 0; }
  std::size_t report_count() const { return reports_seen_; }

  /// Whether the port->port PAUSE edges contain a cycle. A cycle is exactly
  /// the PFC-deadlock signature; in every other scenario the spreading graph
  /// must stay a DAG.
  bool pfc_has_cycle() const;

  /// Structural invariant audit: finite weights in range, non-negative
  /// depths/meters, no self-waits or self PFC edges; with `expect_dag` it
  /// also fails on any PFC cycle. Runs automatically at finalize() when the
  /// InvariantAuditor is enabled (cycle check excluded — deadlock scenarios
  /// legitimately cycle).
  void audit(bool expect_dag = false) const;

  std::string to_dot(const std::unordered_set<FlowKey, FlowKeyHash>& cc_flows) const;

  // --- dense-id interface (hot path; rows are valid after finalize()) -------

  /// One resolved PFC spreading edge out of an upstream port.
  struct PfcEdge {
    std::uint32_t down = 0;      ///< downstream port id
    double weight = 0;           ///< w(p_i, p_j)
    std::int64_t contrib = 0;    ///< max pause-cause bytes attributed to down
  };

  const InternTables& tables() const { return *tables_; }
  bool finalized() const { return finalized_; }

  /// Number of reported ports (== ports().size()).
  std::size_t port_count() const { return sorted_cells_.size(); }
  /// Port id of the i-th reported port in canonical (PortRef) order.
  std::uint32_t port_gid(std::size_t i) const;
  PortRef port_at(std::size_t i) const { return tables_->ports.key_of(port_gid(i)); }
  bool paused_recently_port(std::size_t i) const;
  bool host_facing_port(std::size_t i) const { return host_facing(port_at(i)); }
  /// Waiter flow ids at the i-th port, sorted by FlowKey.
  const std::vector<std::uint32_t>& waiter_ids(std::size_t i) const;
  /// Flow ids with counters at the i-th port, sorted by FlowKey.
  const std::vector<std::uint32_t>& flow_ids_at(std::size_t i) const;
  double pair_weight_ids(std::size_t i, std::uint32_t waiter, std::uint32_t ahead) const;
  double flow_port_weight_ids(std::size_t i, std::uint32_t flow) const;
  double port_flow_weight_ids(std::size_t i, std::uint32_t flow) const;
  /// All flow ids with counters anywhere, sorted by FlowKey (== flows()).
  const std::vector<std::uint32_t>& flow_ids() const { return sorted_flow_ids_; }
  /// Out-edges of the PFC spreading graph for port id `gid`, in pause-cause
  /// arrival order (empty when the port pauses nobody).
  const std::vector<PfcEdge>& pfc_edges_of(std::uint32_t gid) const;
  /// Eq. (2) over ids; kNone operands yield 0 (never-observed key).
  double contribution_to_flow_ids(std::uint32_t f, std::uint32_t cf) const;

 private:
  struct WaitCell {
    std::uint32_t waiter = 0;
    std::uint32_t ahead = 0;
    std::int64_t weight = 0;
  };
  struct WaiterCell {
    std::uint32_t waiter = 0;
    std::int64_t weight_sum = 0;  ///< sum over ahead entries (w(f_i, p))
  };
  struct MeterCell {
    net::PortId in_port = net::kInvalidPort;
    std::int64_t bytes = 0;
  };

  /// Flat staging + finalized rows for one reported port. Cells are pooled
  /// and cleared-not-freed so a reset graph reclaims them without touching
  /// the heap.
  struct PortCell {
    std::uint32_t gid = 0;
    std::int64_t max_qdepth_pkts = 0;
    std::int64_t max_qdepth_bytes = 0;
    std::int64_t total_pkts = 0;  ///< incremental sum of flow_pkts
    bool saw_pause = false;

    std::vector<std::uint32_t> flow_gids;
    std::vector<std::int64_t> flow_pkts;
    common::DenseMap64 flow_slot;  ///< flow id -> slot in flow_gids/flow_pkts

    std::vector<WaitCell> waits;
    common::DenseMap64 wait_slot;  ///< pack(waiter, ahead) -> slot in waits
    std::vector<WaiterCell> waiters;
    common::DenseMap64 waiter_slot;  ///< waiter id -> slot in waiters

    std::vector<MeterCell> meters;

    // finalize() products: slot indices sorted by FlowKey.
    std::vector<std::uint32_t> sorted_waiters;  ///< waiter ids
    std::vector<std::uint32_t> sorted_flows;    ///< flow ids

    void reset_for(std::uint32_t new_gid);
  };

  PortCell& claim_cell(std::uint32_t gid);
  // Folds of one staged value into a cell or the drop list, shared by
  // add_report() and merge() so the two cannot disagree.
  static void fold_flow(PortCell& cell, std::uint32_t fid, std::int64_t pkts);
  static void fold_wait(PortCell& cell, std::uint32_t wid, std::uint32_t aid,
                        std::int64_t weight);
  static void fold_meter(PortCell& cell, net::PortId in_port, std::int64_t bytes);
  void fold_drop(const telemetry::DropEntry& drop);
  const PortCell* cell_of_gid(std::uint32_t gid) const;
  const PortCell* cell_of(const PortRef& p) const;
  std::int32_t pfc_node_of(std::uint32_t gid) const;
  double contribution_to_port_ids(std::uint32_t f, std::uint32_t p_gid) const;
  double contribution_to_port_impl(std::uint32_t f, std::uint32_t p_gid) const;

  const net::Topology* topo_;
  std::unique_ptr<InternTables> owned_tables_;
  InternTables* tables_;

  // --- ingestion staging ----------------------------------------------------
  std::vector<std::int32_t> port_slot_;  ///< port id -> cell index, -1 absent
  std::vector<PortCell> cells_;          ///< pooled; [0, n_cells_) in use
  std::size_t n_cells_ = 0;

  /// Flattened pause-cause records: contributions live in one shared pool so
  /// ingesting a cause never copies a per-report vector.
  struct CauseCell {
    PortRef ingress;
    bool injected = false;
    std::uint32_t begin = 0;  ///< into cause_contribs_
    std::uint32_t count = 0;
    std::uint64_t arrival = 0;  ///< the carrying report's arrival index
  };
  std::vector<CauseCell> causes_;  ///< in report-arrival order
  std::vector<std::pair<net::PortId, std::int64_t>> cause_contribs_;
  std::vector<telemetry::DropEntry> drops_;
  std::size_t reports_seen_ = 0;
  bool finalized_ = false;

  // --- finalize() products --------------------------------------------------
  std::vector<std::int32_t> pfc_node_idx_;       ///< port id -> pfc node, -1
  std::vector<std::uint32_t> pfc_ups_;           ///< node -> up port id
  std::vector<std::vector<PfcEdge>> pfc_out_;    ///< node -> edges, arrival order
  common::DenseMap64 pfc_edge_loc_;  ///< pack(up, down) -> pack(node, edge idx)
  std::vector<std::pair<PortRef, PortRef>> pfc_edge_list_;
  std::vector<PortRef> storm_sources_;
  common::DenseMap64 storm_seen_;

  std::vector<std::uint32_t> sorted_cells_;    ///< cell indices by PortRef
  std::vector<std::uint32_t> sorted_flow_ids_; ///< all observed flows by FlowKey
  /// CSR of flow -> cells where it waits, cell order following sorted_cells_
  /// (i.e. canonical PortRef order, as ports_waited_by() returns).
  std::vector<std::uint32_t> waited_cells_;
  common::DenseMap64 waited_row_;  ///< waiter id -> pack(begin, count)
  std::vector<std::pair<std::uint32_t, std::uint32_t>> waited_scratch_;

  /// Eq. (1) recursion guard: the DFS path, epoch-free because entries are
  /// unwound on exit (array stays all-zero between calls).
  mutable std::vector<std::uint8_t> on_path_;
};

}  // namespace vedr::core
