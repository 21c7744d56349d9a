#include "eval/experiment.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "baselines/full_polling.h"
#include "baselines/hawkeye.h"
#include "collective/runner.h"
#include "common/digest.h"
#include "common/worker_pool.h"
#include "core/json_export.h"
#include "core/vedrfolnir.h"
#include "net/network.h"
#include "net/switch.h"
#include "net/trace.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay/collector.h"
#include "replay/trace_writer.h"
#include "sim/sharded_engine.h"

namespace vedr::eval {

namespace {

/// Ground-truth verification (see score_case): which injected flows
/// actually queued ahead of collective packets somewhere in the fabric,
/// read omnisciently from the simulator's switch state after the run.
std::vector<net::FlowKey> verified_contenders(net::Network& network,
                                              const collective::CollectivePlan& plan,
                                              const ScenarioSpec& spec,
                                              double min_weight = 8.0) {
  const auto cc = plan.flow_keys();

  std::unordered_set<net::FlowKey, net::FlowKeyHash> found;
  // latest_now(): each domain's clock stops at its own last event, so the
  // fabric-wide "end of run" is the max.
  const sim::Tick now = network.latest_now();
  for (net::NodeId sw_id : network.switches()) {
    const net::Switch& sw = network.switch_at(sw_id);
    for (net::PortId p = 0; p < sw.num_ports(); ++p) {
      const auto report = sw.telem().port_snapshot(p, now, 0);
      for (const auto& we : report.waits) {
        if (cc.count(we.waiter) == 0) continue;
        if (static_cast<double>(we.weight) < min_weight) continue;
        for (const auto& injected : spec.bg_flows)
          if (we.ahead == injected.key) found.insert(we.ahead);
      }
    }
  }
  // Ground truth feeds precision/recall accounting downstream; canonicalize
  // the hash-set order before it escapes.
  std::vector<net::FlowKey> out(found.begin(), found.end());  // vedr-lint: allow(unordered-iter): sorted on the next line
  std::sort(out.begin(), out.end());
  return out;
}

/// Whether the injected PFC actually halted collective traffic: some switch
/// egress port both (a) was paused during the anomaly window and (b) saw
/// collective packets around that window. Omniscient ground truth, like
/// verified_contenders.
bool pfc_impacted_collective(net::Network& network, const collective::CollectivePlan& plan,
                             const ScenarioSpec& spec) {
  const auto cc = plan.flow_keys();
  const sim::Tick now = network.latest_now();
  const sim::Tick slack = 100 * sim::kMicrosecond;

  auto cc_at_port_during = [&](const net::PortRef& port, sim::Tick t0, sim::Tick t1) {
    const net::Switch& sw = network.switch_at(port.node);
    const auto report = sw.telem().port_snapshot(port.port, now, 0);
    for (const auto& fe : report.flows) {
      if (cc.count(fe.flow) == 0) continue;
      if (fe.last_seen + slack >= t0 && fe.first_seen <= t1 + slack) return true;
    }
    return false;
  };

  if (!spec.storms.empty()) {
    // A storm impacts the collective iff collective packets crossed the
    // very egress the storm halts (the injection port's link peer) while
    // the storm was active.
    const auto& storm = spec.storms.front();
    const net::PortRef up =
        network.topology().peer(storm.port.node, storm.port.port);
    return cc_at_port_during(up, storm.start, storm.start + storm.duration);
  }

  // Backpressure: the cascade starts at the victim's access port; it
  // impacts the collective iff collective packets crossed a port the
  // victim's edge switch paused (its uplink ingresses pause the upstream
  // agg egresses) while the incast ran.
  if (!spec.bg_flows.empty() && spec.expected_root.valid()) {
    const sim::Tick t0 = spec.bg_flows.front().start;
    const sim::Tick t1 = now;
    const net::NodeId edge = spec.expected_root.node;
    const net::Switch& edge_sw = network.switch_at(edge);
    for (net::PortId p = 0; p < edge_sw.num_ports(); ++p) {
      const net::PortRef upstream = network.topology().peer(edge, p);
      if (network.topology().is_host(upstream.node)) continue;
      // Did this upstream egress get paused (by anyone) in the window and
      // carry collective traffic then?
      const auto report =
          network.switch_at(upstream.node).telem().port_snapshot(upstream.port, now, 0);
      bool paused = false;
      for (const auto& ev : report.pauses) {
        const sim::Tick end = ev.end == sim::kNever ? now : ev.end;
        if (end >= t0 && ev.start <= t1) paused = true;
      }
      if (paused && cc_at_port_during(upstream, t0, t1)) return true;
    }
    return false;
  }
  return true;
}

/// Folds every diagnosis-visible case output into `digest` — the shared
/// tail of both determinism lanes.
void fold_case_outputs(common::Digest& digest, const CaseResult& result) {
  digest.mix(std::string_view(result.outcome.label()));
  digest.mix(result.cc_completed);
  digest.mix(result.cc_time);
  digest.mix(result.sim_events);
  digest.mix(result.telemetry_bytes);
  digest.mix(result.bandwidth_bytes);
  digest.mix(result.poll_bytes);
  digest.mix(result.notify_bytes);
  digest.mix(result.report_count);
  digest.mix(std::string_view(core::json::diagnosis_to_json(result.diagnosis)));
  for (const auto& [flow, score] : result.diagnosis.contributions)
    digest.mix(flow.hash()).mix(score);
}

}  // namespace

const char* to_string(SystemKind s) {
  switch (s) {
    case SystemKind::kVedrfolnir: return "Vedrfolnir";
    case SystemKind::kHawkeyeMaxR: return "Hawkeye-MaxR";
    case SystemKind::kHawkeyeMinR: return "Hawkeye-MinR";
    case SystemKind::kFullPolling: return "FullPolling";
  }
  return "?";
}

const char* cli_name(SystemKind s) {
  switch (s) {
    case SystemKind::kVedrfolnir: return "vedrfolnir";
    case SystemKind::kHawkeyeMaxR: return "hawkeye-max";
    case SystemKind::kHawkeyeMinR: return "hawkeye-min";
    case SystemKind::kFullPolling: return "full";
  }
  return "?";
}

std::optional<SystemKind> parse_system(std::string_view name) {
  for (const SystemKind s : {SystemKind::kVedrfolnir, SystemKind::kHawkeyeMaxR,
                             SystemKind::kHawkeyeMinR, SystemKind::kFullPolling})
    if (name == cli_name(s)) return s;
  return std::nullopt;
}

CaseResult run_case(const ScenarioSpec& spec, SystemKind system, const RunConfig& cfg) {
  VEDR_SPAN("eval", "run_case");
  CaseResult result;
  result.scenario = spec.type;
  result.system = system;
  result.case_id = spec.case_id;

  const net::Topology topo = net::make_fat_tree(cfg.fat_tree_k, cfg.netcfg);
  // The serial lane is the one-domain plan; shards > 1 runs the topology's
  // pod domains (DESIGN.md §14).
  const net::ShardPlan shard_plan =
      cfg.shards > 1 ? net::ShardPlan::for_topology(topo) : net::ShardPlan::single(topo);
  sim::ShardedEngine engine(shard_plan.num_domains, shard_plan.lookahead, cfg.shards);
  if (cfg.capture_shard_report) engine.set_collect_timing(true);
  net::Network network(engine, shard_plan, topo, cfg.netcfg);
  if (cfg.domain_tracer_factory) {
    for (int d = 0; d < shard_plan.num_domains; ++d)
      network.set_domain_tracer(d, cfg.domain_tracer_factory(d, shard_plan.num_domains));
  }

  auto plan = collective::CollectivePlan::ring(0, collective::OpType::kAllGather,
                                               spec.participants, spec.cc_step_bytes);
  collective::CollectiveRunner runner(network, std::move(plan));

  std::unique_ptr<core::Vedrfolnir> vedr;
  std::unique_ptr<baselines::Hawkeye> hawkeye;
  std::unique_ptr<baselines::FullPolling> full;

  switch (system) {
    case SystemKind::kVedrfolnir:
      vedr = std::make_unique<core::Vedrfolnir>(
          network, runner, core::VedrfolnirConfig{cfg.detection, cfg.trace_writer});
      break;
    case SystemKind::kHawkeyeMaxR:
    case SystemKind::kHawkeyeMinR:
      hawkeye = std::make_unique<baselines::Hawkeye>(
          network, runner.plan(),
          baselines::HawkeyeConfig{system == SystemKind::kHawkeyeMaxR}, cfg.trace_writer);
      break;
    case SystemKind::kFullPolling:
      full = std::make_unique<baselines::FullPolling>(network, runner.plan(), cfg.trace_writer);
      full->start(spec.horizon);
      break;
  }

  for (const auto& f : spec.bg_flows) anomaly::inject_flow(network, f);
  for (const auto& s : spec.storms) anomaly::inject_storm(network, s);

  runner.start(0);
  engine.run(spec.horizon * 4);
  network.merge_domain_stats();

  result.cc_completed = runner.done();
  result.cc_time = runner.done() ? runner.finish_time() - runner.start_time() : 0;
  result.sim_events = engine.events_executed();
  result.packets_delivered = network.packets_delivered();
  for (int d = 0; d < engine.num_domains(); ++d) {
    const sim::Simulator& domain = engine.domain(d);
    result.heap_pushes += domain.heap_pushes();
    for (std::size_t k = 0; k < sim::kNumEventKinds; ++k)
      result.pops_by_kind[k] += domain.pops_by_kind()[k];
  }

  switch (system) {
    case SystemKind::kVedrfolnir:
      result.diagnosis = vedr->diagnose();
      break;
    case SystemKind::kHawkeyeMaxR:
    case SystemKind::kHawkeyeMinR:
      result.diagnosis = hawkeye->diagnose();
      break;
    case SystemKind::kFullPolling:
      result.diagnosis = full->diagnose();
      break;
  }
  if (spec.type == ScenarioType::kFlowContention || spec.type == ScenarioType::kIncast) {
    const auto verified = verified_contenders(network, runner.plan(), spec);
    result.outcome = score_case(spec, result.diagnosis, &verified);
  } else {
    const bool impacted = pfc_impacted_collective(network, runner.plan(), spec);
    result.outcome = score_case(spec, result.diagnosis, nullptr, &impacted);
  }

  const auto& stats = network.stats();  // domain 0 holds the merged registry
  result.telemetry_bytes = stats.counter("overhead.telemetry_bytes");
  result.bandwidth_bytes = stats.counter("overhead.bandwidth_bytes");
  result.poll_bytes = stats.counter("overhead.poll_bytes");
  result.notify_bytes = stats.counter("overhead.notify_bytes");
  result.report_count = stats.counter("overhead.report_count");
  // End-of-run switch-resident collection state, summed live rather than
  // read from the poll-time gauge so runs that never polled still report
  // their footprint. Observation only — never folded into run_case_digest.
  for (net::NodeId sw_id : network.switches())
    result.telemetry_state_bytes += network.switch_at(sw_id).telem().state_bytes();
  if (cfg.capture_metrics)
    result.metrics = std::make_shared<const obs::MetricsSnapshot>(obs::snapshot(stats));
  if (cfg.capture_shard_report) {
    auto report = std::make_shared<sim::ShardReport>();
    engine.fill_report(*report);
    network.fill_shard_report(*report);
    result.shard_report = std::move(report);
  }
  return result;
}

// The replay enums mirror the eval ones so replay needs no eval dependency;
// any renumbering here must bump the trace format version.
static_assert(static_cast<int>(SystemKind::kVedrfolnir) ==
              static_cast<int>(replay::RecordedSystem::kVedrfolnir));
static_assert(static_cast<int>(SystemKind::kHawkeyeMaxR) ==
              static_cast<int>(replay::RecordedSystem::kHawkeyeMaxR));
static_assert(static_cast<int>(SystemKind::kHawkeyeMinR) ==
              static_cast<int>(replay::RecordedSystem::kHawkeyeMinR));
static_assert(static_cast<int>(SystemKind::kFullPolling) ==
              static_cast<int>(replay::RecordedSystem::kFullPolling));
static_assert(static_cast<int>(ScenarioType::kFlowContention) ==
              static_cast<int>(replay::RecordedScenario::kFlowContention));
static_assert(static_cast<int>(ScenarioType::kIncast) ==
              static_cast<int>(replay::RecordedScenario::kIncast));
static_assert(static_cast<int>(ScenarioType::kPfcStorm) ==
              static_cast<int>(replay::RecordedScenario::kPfcStorm));
static_assert(static_cast<int>(ScenarioType::kPfcBackpressure) ==
              static_cast<int>(replay::RecordedScenario::kPfcBackpressure));

CaseResult record_case(const ScenarioSpec& spec, SystemKind system, const RunConfig& cfg,
                       const std::string& path, std::string* error) {
  VEDR_CHECK(replay::valid_fat_tree_k(cfg.fat_tree_k), "a trace cannot record fat-tree k = ",
             cfg.fat_tree_k, " (even, 4..", replay::kMaxFatTreeK, ")");
  replay::TraceWriter writer(path);

  replay::TraceEnvelope env;
  env.system = static_cast<replay::RecordedSystem>(system);
  env.scenario = static_cast<replay::RecordedScenario>(spec.type);
  env.case_id = spec.case_id;
  env.seed = spec.seed;
  env.fat_tree_k = cfg.fat_tree_k;  // must match run_case's make_fat_tree call
  env.horizon = spec.horizon;
  env.participants = spec.participants;
  env.cc_step_bytes = spec.cc_step_bytes;
  env.netcfg = cfg.netcfg;
  env.bg_flows = spec.bg_flows;
  env.storms = spec.storms;
  env.expected_root = spec.expected_root;
  writer.write_envelope(env);

  RunConfig run_cfg = cfg;
  run_cfg.trace_writer = &writer;
  const CaseResult result = run_case(spec, system, run_cfg);

  replay::TraceFooter footer;
  const std::string json = core::json::diagnosis_to_json(result.diagnosis);
  footer.diagnosis_digest = replay::diagnosis_json_digest(json);
  footer.diagnosis_json_bytes = json.size();
  footer.outcome = result.outcome.tp   ? replay::RecordedOutcome::kTruePositive
                   : result.outcome.fp ? replay::RecordedOutcome::kFalsePositive
                                       : replay::RecordedOutcome::kFalseNegative;
  footer.cc_completed = result.cc_completed;
  footer.cc_time = result.cc_time;
  writer.write_footer(footer);
  writer.close();
  if (!writer.ok() && error != nullptr) *error = writer.error();
  return result;
}

namespace {

/// The packet-event fold shared by both digest lanes.
void mix_trace_event(common::Digest& digest, const net::TraceEvent& ev) {
  digest.mix(static_cast<std::uint64_t>(ev.kind))
      .mix(ev.time)
      .mix(ev.node)
      .mix(ev.port)
      .mix(static_cast<std::uint64_t>(ev.pkt_type))
      .mix(ev.flow.hash())
      .mix(ev.seq)
      .mix(ev.size);
}

}  // namespace

std::uint64_t run_case_digest(const ScenarioSpec& spec, SystemKind system, RunConfig cfg) {
  // One streaming digest per domain: a domain's packet events are totally
  // ordered by its own simulator, and streaming keeps the (possibly
  // multi-million-event) stream out of memory.
  struct DomainLane {
    common::Digest digest;
    net::PacketTracer tracer;
  };
  std::vector<std::unique_ptr<DomainLane>> lanes;
  cfg.domain_tracer_factory = [&lanes](int domain, int num_domains) {
    (void)num_domains;
    VEDR_CHECK_EQ(static_cast<std::size_t>(domain), lanes.size(),
                  "domains must be attached in order");
    lanes.push_back(std::make_unique<DomainLane>());
    DomainLane& lane = *lanes.back();
    lane.tracer.set_sink([&lane](const net::TraceEvent& ev) { mix_trace_event(lane.digest, ev); });
    return &lane.tracer;
  };

  const CaseResult result = run_case(spec, system, cfg);

  // Two pinned formulas. The serial lane (one domain) folds the case outputs
  // straight after its packet stream. The parallel lane folds the domain
  // count and the per-domain digests in domain order first; it is identical
  // for any shard count, because the domain decomposition is a pure function
  // of the topology.
  common::Digest digest;
  if (lanes.size() == 1) {
    digest = lanes.front()->digest;
  } else {
    digest.mix(static_cast<std::uint64_t>(lanes.size()));
    for (const auto& lane : lanes) digest.mix(lane->digest.value());
  }
  fold_case_outputs(digest, result);
  return digest.value();
}

std::vector<CaseResult> run_scenario_suite(ScenarioType type, int n_cases, SystemKind system,
                                           const RunConfig& cfg, const ScenarioParams& params,
                                           int threads) {
  // Scenario generation only needs a topology + routing, shared read-only.
  const net::Topology topo = net::make_fat_tree(cfg.fat_tree_k, cfg.netcfg);
  const net::RoutingTable routing = net::RoutingTable::shortest_paths(topo);

  std::vector<ScenarioSpec> specs;
  specs.reserve(static_cast<std::size_t>(n_cases));
  for (int i = 0; i < n_cases; ++i)
    specs.push_back(make_scenario(type, i, topo, routing, params));

  std::vector<CaseResult> results(specs.size());
  if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  VEDR_LOG_DEBUG("eval", "suite %s x%d under %s on %d threads", to_string(type), n_cases,
                 to_string(system), threads);

  // Thread-safety argument (exercised by the TSan stress lane): the shared
  // pool hands every index to exactly one worker, workers write disjoint
  // results[idx] slots, and parallel_for's joins order those writes before
  // the caller's reads. Each run_case builds a private Simulator/Network, so
  // the only cross-thread state it touches is the internally synchronized
  // obs layer.
  common::WorkerPool::parallel_for(
      n_cases, threads, [&](int idx) {
        results[static_cast<std::size_t>(idx)] =
            run_case(specs[static_cast<std::size_t>(idx)], system, cfg);
      });
  return results;
}

SuiteSummary SuiteSummary::from(const std::vector<CaseResult>& results) {
  SuiteSummary s;
  for (const auto& r : results) {
    s.pr.add(r.outcome);
    s.mean_telemetry_bytes += static_cast<double>(r.telemetry_bytes);
    s.mean_bandwidth_bytes += static_cast<double>(r.bandwidth_bytes);
    s.mean_cc_time_us += sim::to_us(r.cc_time);
    ++s.cases;
  }
  if (s.cases > 0) {
    s.mean_telemetry_bytes /= s.cases;
    s.mean_bandwidth_bytes /= s.cases;
    s.mean_cc_time_us /= s.cases;
  }
  return s;
}

}  // namespace vedr::eval
