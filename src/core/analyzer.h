#pragma once

#include <memory>
#include <unordered_set>
#include <vector>

#include "collective/plan.h"
#include "collective/runner.h"
#include "common/dense_map.h"
#include "common/thread_annotations.h"
#include "core/diagnosis.h"
#include "core/intern.h"
#include "core/provenance_graph.h"
#include "common/tap.h"
#include "core/signatures.h"
#include "core/waiting_graph.h"
#include "net/topology.h"
#include "telemetry/records.h"

namespace vedr::obs {
class Histogram;
}  // namespace vedr::obs

namespace vedr::sim {
class StatsRegistry;
}  // namespace vedr::sim

namespace vedr::core {

/// The centralized analyzer (§III-A right side): receives host step records
/// and switch telemetry reports, groups reports by collective step via the
/// poll registry, and produces a Diagnosis — waiting-graph bottleneck
/// analysis, per-step provenance root causes, and contributor ratings.
///
/// Each switch report lands in exactly one graph: the step graph its poll
/// registered, or, when no registered poll maps it, the step-agnostic global
/// graph. Baselines reuse the same analyzer without a plan: their reports
/// all land in the global graph and no waiting graph is built.
///
/// The analyzer owns the shared InternTables: every per-step provenance
/// graph and the global graph resolve FlowKey/PortRef through the same
/// dense-id space, so a composite key is hashed once at ingestion and all
/// cross-graph work (classification, contributor rating) runs on u32 ids.
/// Per-step graphs are pooled and cleared-not-freed across reset(), so a
/// warmed analyzer re-ingests a same-shaped case without heap allocation.
///
/// Threading contract: VEDR_SINGLE_THREADED — ingestion, diagnose(), and
/// reset() must all come from one thread at a time (the pooled graphs,
/// intern tables, and scratch buffers are unsynchronized by design). The
/// streaming daemon (ROADMAP item 3) runs one Analyzer per tenant shard;
/// concurrency lives in the shard executor, never inside the analyzer.
class VEDR_SINGLE_THREADED Analyzer {
 public:
  Analyzer(const net::Topology* topo, const collective::CollectivePlan* plan);

  // The per-step graphs and the waiting graph point into this analyzer's
  // intern tables and buffers; moving it would dangle them.
  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;
  Analyzer(Analyzer&&) = delete;
  Analyzer& operator=(Analyzer&&) = delete;

  // --- ingestion -------------------------------------------------------------

  void add_step_record(const collective::StepRecord& r);
  /// Associates a poll id with (flow, step) so the triggered switch reports
  /// land in the right per-step provenance graph.
  void register_poll(std::uint64_t poll_id, int flow, int step);
  void on_switch_report(const telemetry::SwitchReport& report);

  /// Drops all ingested state (records, polls, graphs) but keeps the intern
  /// tables and every warmed buffer, ready for the next case.
  void reset();

  /// Sets the monitored flow set explicitly (used by baselines which have
  /// no plan but know which flows they watch).
  void set_cc_flows(std::unordered_set<FlowKey, FlowKeyHash> flows) {
    cc_flows_ = std::move(flows);
  }

  /// Observation-only mirror of the full ingestion stream (step records,
  /// poll registrations, switch reports) into a trace writer. Replaying the
  /// mirrored calls into a fresh Analyzer reproduces diagnose() exactly.
  void set_trace_tap(TraceTap* tap) { tap_ = tap; }

  /// Attaches a stats registry for self-observation: diagnose() wall latency
  /// lands in the `diag.latency_ns` histogram while obs::metrics_enabled().
  /// The registry must outlive the analyzer.
  void set_stats(sim::StatsRegistry* stats);

  // --- diagnosis ---------------------------------------------------------------

  Diagnosis diagnose();

  const WaitingGraph& waiting_graph() const { return waiting_graph_; }
  /// Reports that no registered poll maps to a step (all of a baseline's).
  const ProvenanceGraph& global_graph() const { return global_; }
  /// Every ingested report in one finalized graph: the step graphs and the
  /// global graph merged, equal to one graph that ingested the whole stream
  /// in arrival order up to the order of its drop list. Built on demand for
  /// the DOT exports; ingestion never pays for it.
  ProvenanceGraph merged_graph();
  /// Number of per-step provenance graphs populated by registered polls.
  std::size_t step_graph_count() const { return n_step_graphs_; }
  /// The populated steps in ascending order.
  std::vector<int> step_graph_steps() const;
  /// Per-step graph lookup; nullptr when no reports landed for `step`.
  const ProvenanceGraph* step_graph(int step) const;
  ProvenanceGraph* step_graph(int step);
  std::size_t step_records() const { return records_.size(); }
  std::size_t reports_received() const { return reports_received_; }
  const InternTables& tables() const { return tables_; }

 private:
  const net::Topology* topo_;
  const collective::CollectivePlan* plan_;
  InternTables tables_;
  common::DenseMap64 poll_index_;  ///< poll id -> pack(flow, step)
  /// Pooled per-step graphs: [0, n_step_graphs_) in use, claimed in report
  /// arrival order; step_slot_ maps step -> pool index.
  std::vector<ProvenanceGraph> step_pool_;
  std::vector<int> step_of_;  ///< pool index -> step
  common::DenseMap64 step_slot_;
  std::size_t n_step_graphs_ = 0;
  ProvenanceGraph global_;
  std::vector<collective::StepRecord> records_;
  int max_step_ = -1;  ///< max step over records_, maintained at ingestion
  std::unordered_set<FlowKey, FlowKeyHash> cc_flows_;
  WaitingGraph waiting_graph_;
  SignatureClassifier classifier_;
  std::size_t reports_received_ = 0;
  bool saw_sketch_ = false;  ///< any report arrived via the sketch backend
  TraceTap* tap_ = nullptr;
  obs::Histogram* diag_hist_ = nullptr;  ///< interned diagnose-latency cell
};

}  // namespace vedr::core
