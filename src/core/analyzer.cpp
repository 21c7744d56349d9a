#include "core/analyzer.h"

#include <algorithm>

#include "common/check.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "sim/stats.h"

namespace vedr::core {

Analyzer::Analyzer(const net::Topology* topo, const collective::CollectivePlan* plan)
    : topo_(topo), plan_(plan), global_(topo, &tables_) {
  if (plan_ != nullptr) cc_flows_ = plan_->flow_keys();
}

void Analyzer::set_stats(sim::StatsRegistry* stats) {
  diag_hist_ = stats != nullptr ? stats->hist_cell("diag.latency_ns") : nullptr;
}

void Analyzer::add_step_record(const collective::StepRecord& r) {
  if (tap_ != nullptr) tap_->on_step_record(r);
  records_.push_back(r);
  max_step_ = std::max(max_step_, r.step);
}

void Analyzer::register_poll(std::uint64_t poll_id, int flow, int step) {
  if (tap_ != nullptr) tap_->on_poll_registered({poll_id, flow, step});
  // The monitor only emits polls for a live step; a negative identity would
  // corrupt the packed registry entry.
  VEDR_CHECK(flow >= 0 && step >= 0, "poll registered with invalid identity F", flow, "S",
             step);
  poll_index_.insert_or_get(poll_id, 0) = common::pack_u32_pair(
      static_cast<std::uint32_t>(flow), static_cast<std::uint32_t>(step));
}

void Analyzer::on_switch_report(const telemetry::SwitchReport& report) {
  if (tap_ != nullptr) tap_->on_switch_report_in(report);
  const std::uint64_t arrival = reports_received_++;
  if (report.backend == net::TelemetryBackend::kSketch) saw_sketch_ = true;
  if (const std::uint64_t* entry = poll_index_.find(report.poll_id); entry != nullptr) {
    const int step = static_cast<int>(common::unpack_lo(*entry));
    std::uint64_t& slot =
        step_slot_.insert_or_get(static_cast<std::uint64_t>(step), n_step_graphs_);
    if (slot == n_step_graphs_) {
      // Fresh step: claim a pooled graph (they were reset() when the previous
      // case released them, so claiming is allocation-free once warmed).
      if (n_step_graphs_ == step_pool_.size()) step_pool_.emplace_back(topo_, &tables_);
      if (n_step_graphs_ == step_of_.size())
        step_of_.push_back(step);
      else
        step_of_[n_step_graphs_] = step;
      ++n_step_graphs_;
    }
    step_pool_[slot].add_report(report, arrival);
    return;
  }
  global_.add_report(report, arrival);
}

ProvenanceGraph Analyzer::merged_graph() {
  ProvenanceGraph merged(topo_, &tables_);
  for (std::size_t i = 0; i < n_step_graphs_; ++i) merged.merge(step_pool_[i]);
  merged.merge(global_);
  merged.finalize();
  return merged;
}

void Analyzer::reset() {
  for (std::size_t i = 0; i < n_step_graphs_; ++i) step_pool_[i].reset();
  n_step_graphs_ = 0;
  step_slot_.clear();
  global_.reset();
  poll_index_.clear();
  records_.clear();
  max_step_ = -1;
  reports_received_ = 0;
  saw_sketch_ = false;
}

std::vector<int> Analyzer::step_graph_steps() const {
  std::vector<int> steps(step_of_.begin(), step_of_.begin() + n_step_graphs_);
  std::sort(steps.begin(), steps.end());
  return steps;
}

const ProvenanceGraph* Analyzer::step_graph(int step) const {
  if (step < 0) return nullptr;
  const std::uint64_t* slot = step_slot_.find(static_cast<std::uint64_t>(step));
  return slot == nullptr ? nullptr : &step_pool_[*slot];
}

ProvenanceGraph* Analyzer::step_graph(int step) {
  return const_cast<ProvenanceGraph*>(static_cast<const Analyzer*>(this)->step_graph(step));
}

Diagnosis Analyzer::diagnose() {
  VEDR_SPAN("diag", "diagnose");
  const bool timed = diag_hist_ != nullptr && obs::metrics_enabled();
  const std::uint64_t t0 = timed ? obs::wall_now_ns() : 0;
  Diagnosis d;
  d.sketch_lane = saw_sketch_;

  // 1. Waiting graph: bottleneck analysis and the per-step critical flows.
  //    rebuild() borrows records_ and reuses the graph's buffers; max_step_
  //    was maintained at ingestion, so the records are read exactly once
  //    (by the rebuild's sort).
  {
    VEDR_SPAN("diag", "waiting_graph");
    waiting_graph_.rebuild(records_);
    d.critical_path = waiting_graph_.critical_path();
    d.collective_time = waiting_graph_.total_time();
    for (int s = 0; s <= max_step_; ++s)
      d.critical_flow_per_step.push_back(waiting_graph_.critical_flow_of_step(s));
  }

  // 2. Per-step excess execution time over the expected idle-fabric time,
  //    weighting the contributor rating (Eq. 3). Resolved before the graph
  //    pass so classification and rating share a single walk per graph.
  std::vector<double> excess;
  std::vector<std::uint32_t> cf_id_of_step;
  double total_excess = 0;
  const bool rate = plan_ != nullptr && !records_.empty();
  if (rate && max_step_ >= 0) {
    excess.assign(static_cast<std::size_t>(max_step_) + 1, -1.0);
    cf_id_of_step.assign(static_cast<std::size_t>(max_step_) + 1, FlowInterner::kNone);
    for (int s = 0; s <= max_step_; ++s) {
      const int cf = waiting_graph_.critical_flow_of_step(s);
      if (cf < 0) continue;
      const auto* rec = waiting_graph_.record_of(cf, s);
      if (rec == nullptr || rec->end_time == sim::kNever) continue;
      const double e = std::max<double>(
          0, static_cast<double>((rec->end_time - rec->start_time) - rec->expected_duration));
      excess[static_cast<std::size_t>(s)] = e;
      // The critical flow's key may never have reached the telemetry plane;
      // kNone then yields a zero contribution, as the key lookup used to.
      cf_id_of_step[static_cast<std::size_t>(s)] = tables_.flows.find(rec->key);
      total_excess += e;
    }
  }

  // 3. Single pass over the per-step graphs: finalize once, classify, and
  //    accumulate contributor scores for the steps carrying excess time.
  //    Membership tests always use the full collective key set: a lagging
  //    transfer from an earlier step is still collective traffic, not a
  //    foreign contender.
  FlowIdSet cc;
  cc.build(tables_.flows, cc_flows_);
  common::DenseMap64 score_slot;
  std::vector<std::uint32_t> score_ids;
  std::vector<double> score_vals;
  const bool rating_active = rate && total_excess > 0;

  for (const int step : step_graph_steps()) {
    ProvenanceGraph& graph = *step_graph(step);
    {
      VEDR_SPAN("diag", "finalize");
      graph.finalize();
    }
    std::vector<AnomalyFinding> findings;
    {
      VEDR_SPAN("diag", "classify");
      findings = classifier_.classify(graph, cc, step);
    }
    d.findings.insert(d.findings.end(), findings.begin(), findings.end());

    if (!rating_active || step < 0 || step > max_step_) continue;
    const double e = excess[static_cast<std::size_t>(step)];
    if (e <= 0) continue;
    const std::uint32_t cf = cf_id_of_step[static_cast<std::size_t>(step)];
    for (const std::uint32_t f : graph.flow_ids()) {
      if (cc.contains(f)) continue;
      const double r = graph.contribution_to_flow_ids(f, cf);
      if (r > 0) {
        const std::uint64_t fresh = score_ids.size();
        std::uint64_t& slot = score_slot.insert_or_get(f, fresh);
        if (slot == fresh) {
          score_ids.push_back(f);
          score_vals.push_back(0);
        }
        score_vals[slot] += r * (e / total_excess);
      }
    }
  }
  if (n_step_graphs_ == 0 && !global_.empty()) {
    global_.finalize();
    auto findings = classifier_.classify(global_, cc, -1);
    d.findings.insert(d.findings.end(), findings.begin(), findings.end());
  }
  d.findings = coalesce_findings(std::move(d.findings));

  if (rating_active) {
    VEDR_SPAN("diag", "rate");
    d.contributions.reserve(score_ids.size());
    for (std::size_t i = 0; i < score_ids.size(); ++i)
      d.contributions.emplace_back(tables_.flows.key_of(score_ids[i]), score_vals[i]);
    // Deterministic ranking: ties (and near-ties) must not fall back to
    // accumulation order, or the reported contributor list would vary run
    // to run.
    std::sort(d.contributions.begin(), d.contributions.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
  }

  if (timed) diag_hist_->add(static_cast<std::int64_t>(obs::wall_now_ns() - t0));
  return d;
}

}  // namespace vedr::core
