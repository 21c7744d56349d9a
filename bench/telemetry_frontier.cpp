// telemetry_frontier — measures the exact-vs-sketch accuracy/memory frontier
// behind DESIGN.md §13 (pluggable TelemetryStore backends).
//
//   telemetry_frontier [--scale F] [--case N] [--smoke] [--json PATH]
//
// Two axes:
//
//  1. Scenario sweep: each of the four paper scenarios runs once with the
//     exact backend and once per sketch budget; the sketch lane must keep
//     the exact lane's verdict (TP/FP/FN label) and blame the same top
//     culprit. Note the honest caveat this table prints: at bench scale the
//     fabric holds only a handful of flows, so the sketch's fixed arrays can
//     *exceed* exact state — scenarios prove accuracy survives compression,
//     not that compression pays off.
//
//  2. Many-flow synthesis: the memory win appears when co-resident flows
//     grow and exact pairwise-wait state goes O(flows^2). Both stores are
//     driven directly with the same heavy-hitter stream; the frontier gate
//     requires the sketch to keep the true top flow at <= 1/50th of exact
//     state bytes.
//
// Emits the standard machine-readable record (CI writes BENCH_telemetry.json)
// with a `frontier_ok` gate: scenario agreement at the default budget plus
// the many-flow <=1/50 point. Exit 0 iff the gate holds.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/env.h"
#include "eval/experiment.h"
#include "net/routing.h"
#include "telemetry/exact_store.h"
#include "telemetry/sketch_store.h"

namespace {

using namespace vedr;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--scale F] [--case N] [--smoke] [--json PATH]\n", argv0);
  std::exit(2);
}

struct Budget {
  const char* name;
  net::TelemetryParams params;
};

std::vector<Budget> budgets(bool smoke) {
  auto sketch = [](std::int32_t w, std::int32_t d, std::int32_t k) {
    net::TelemetryParams p;
    p.backend = net::TelemetryBackend::kSketch;
    p.sketch_width = w;
    p.sketch_depth = d;
    p.topk = k;
    return p;
  };
  if (smoke) return {{"default", sketch(512, 4, 32)}};
  return {
      {"tiny", sketch(64, 2, 8)},
      {"small", sketch(128, 3, 16)},
      {"default", sketch(512, 4, 32)},
  };
}

/// Top contributor by score, FlowKey order on ties; score < 0 means the
/// diagnosis implicated nobody.
std::pair<net::FlowKey, double> top_culprit(const core::Diagnosis& d) {
  net::FlowKey best{};
  double best_score = -1.0;
  for (const auto& [flow, score] : d.contributions) {
    if (score > best_score || (score == best_score && flow < best)) {
      best = flow;
      best_score = score;
    }
  }
  return {best, best_score};
}

struct ScenarioRow {
  const char* scenario;
  const char* budget;
  std::int64_t exact_state = 0;
  std::int64_t sketch_state = 0;
  bool label_match = false;
  bool culprit_match = false;
};

/// Many-flow synthesis: `flows` co-resident flows per round, flow 0 the
/// dominant culprit (kHeavyPkts extra packets per round). Every enqueue of
/// flow i records waits behind all flows already queued, so the exact store's
/// pair table grows to flows*(flows-1)/2 entries while the sketch stays at
/// its fixed budget.
struct ManyFlowPoint {
  std::int64_t exact_state = 0;
  std::int64_t sketch_state = 0;
  bool top_flow_kept = false;    ///< true top flow survives in the top-k heap
  bool top_flow_ranked = false;  ///< and ranks first by estimated pkts
};

ManyFlowPoint many_flow_point(int flows, int rounds, const net::TelemetryParams& params) {
  constexpr int kHeavyPkts = 32;
  auto flow_of = [](int i) {
    return telemetry::FlowKey{i, 7000, static_cast<std::uint16_t>(i), 1};
  };

  telemetry::ExactStore exact;
  telemetry::SketchStore sketch(params);
  telemetry::Tick now = 1000;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < flows; ++i) {
      const int pkts = 1 + (i == 0 ? kHeavyPkts : 0);
      for (int p = 0; p < pkts; ++p) {
        exact.on_enqueue(flow_of(i), 1000, now);
        sketch.on_enqueue(flow_of(i), 1000, now);
        ++now;
      }
    }
    for (int i = 0; i < flows; ++i) {
      const int pkts = 1 + (i == 0 ? kHeavyPkts : 0);
      for (int p = 0; p < pkts; ++p) {
        exact.on_dequeue(flow_of(i), 1000);
        sketch.on_dequeue(flow_of(i), 1000);
      }
    }
  }

  ManyFlowPoint pt;
  pt.exact_state = exact.state_bytes();
  pt.sketch_state = sketch.state_bytes();
  const telemetry::FlowKey heavy = flow_of(0);
  std::int64_t best_est = -1;
  telemetry::FlowKey best{};
  for (const auto& f : sketch.topk_flows()) {
    if (f == heavy) pt.top_flow_kept = true;
    const std::int64_t est = sketch.estimate_pkts(f);
    if (est > best_est || (est == best_est && f < best)) {
      best = f;
      best_est = est;
    }
  }
  pt.top_flow_ranked = pt.top_flow_kept && best == heavy;
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = bench::scale_from_env();
  int case_id = 0;
  bool smoke = false;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scale") {
      scale = common::parse_f64_or_die("--scale", next());
      if (scale <= 0) usage(argv[0]);
    } else if (arg == "--case") {
      case_id = common::parse_int_or_die("--case", next(), 0, INT_MAX);
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json") {
      json_path = next();
    } else {
      usage(argv[0]);
    }
  }
  if (smoke && !common::env_str("VEDR_SCALE")) scale = 1.0 / 256.0;

  eval::RunConfig cfg;
  eval::ScenarioParams params;
  params.scale = scale;
  const net::Topology topo = net::make_fat_tree(4, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  const auto budget_list = budgets(smoke);

  bench::print_header("Telemetry frontier: scenario sweep (exact vs sketch)");
  std::printf("%-14s %-8s %12s %12s %6s %8s %8s\n", "scenario", "budget", "exact_state",
              "sketch_state", "label", "culprit", "verdict");

  std::vector<ScenarioRow> rows;
  bool scenarios_ok = true;
  for (auto scenario : bench::all_scenarios()) {
    const auto spec = eval::make_scenario(scenario, case_id, topo, routing, params);

    const eval::CaseResult exact = eval::run_case(spec, eval::SystemKind::kVedrfolnir, cfg);
    const auto [exact_top, exact_score] = top_culprit(exact.diagnosis);

    for (const auto& b : budget_list) {
      eval::RunConfig scfg = cfg;
      scfg.netcfg.telemetry = b.params;
      const eval::CaseResult sk = eval::run_case(spec, eval::SystemKind::kVedrfolnir, scfg);
      const auto [sketch_top, sketch_score] = top_culprit(sk.diagnosis);

      ScenarioRow row;
      row.scenario = eval::cli_name(scenario);
      row.budget = b.name;
      row.exact_state = exact.telemetry_state_bytes;
      row.sketch_state = sk.telemetry_state_bytes;
      row.label_match = std::string(exact.outcome.label()) == sk.outcome.label();
      row.culprit_match =
          exact_score < 0 ? sketch_score < 0 : (sketch_score >= 0 && sketch_top == exact_top);
      rows.push_back(row);

      const bool ok = row.label_match && row.culprit_match;
      if (std::string(b.name) == "default" && !ok) scenarios_ok = false;
      std::printf("%-14s %-8s %12s %12s %6s %8s %8s\n", row.scenario, row.budget,
                  bench::human_bytes(static_cast<double>(row.exact_state)).c_str(),
                  bench::human_bytes(static_cast<double>(row.sketch_state)).c_str(),
                  row.label_match ? "same" : "DIFF", row.culprit_match ? "same" : "DIFF",
                  ok ? "ok" : "FAIL");
    }
  }
  std::printf("(scenario fabrics at scale %.5f hold few flows, so fixed sketch arrays can\n"
              " exceed exact state here; the memory win is the many-flow point below)\n",
              scale);

  // The frontier point: exact pair state is O(flows^2), the sketch fixed.
  const int flows = smoke ? 256 : 512;
  const int rounds = 2;
  net::TelemetryParams frontier_params;
  frontier_params.backend = net::TelemetryBackend::kSketch;
  frontier_params.sketch_width = smoke ? 128 : 256;
  frontier_params.sketch_depth = smoke ? 3 : 4;
  frontier_params.topk = smoke ? 16 : 32;
  const ManyFlowPoint pt = many_flow_point(flows, rounds, frontier_params);
  const double ratio =
      pt.exact_state > 0 ? static_cast<double>(pt.sketch_state) / pt.exact_state : 1.0;
  const bool many_flow_ok = pt.top_flow_ranked && ratio <= 1.0 / 50.0;

  bench::print_header("Many-flow frontier point");
  std::printf("flows=%d rounds=%d sketch w=%d d=%d k=%d\n", flows, rounds,
              frontier_params.sketch_width, frontier_params.sketch_depth, frontier_params.topk);
  std::printf("exact state:  %s\n",
              bench::human_bytes(static_cast<double>(pt.exact_state)).c_str());
  std::printf("sketch state: %s (%.4fx exact, gate <= %.4f)\n",
              bench::human_bytes(static_cast<double>(pt.sketch_state)).c_str(), ratio,
              1.0 / 50.0);
  std::printf("true top flow: %s, ranked first: %s\n", pt.top_flow_kept ? "kept" : "LOST",
              pt.top_flow_ranked ? "yes" : "NO");

  const bool frontier_ok = scenarios_ok && many_flow_ok;
  std::printf("\nfrontier_ok: %s\n", frontier_ok ? "true" : "false");

  if (!json_path.empty()) {
    bench::BenchReport report("telemetry_frontier");
    report.field("scale", scale).field("case_id", case_id).field("smoke", smoke);
    for (const auto& row : rows) {
      const std::string prefix = std::string(row.scenario) + "_" + row.budget;
      report.field(prefix + "_exact_state", row.exact_state)
          .field(prefix + "_sketch_state", row.sketch_state)
          .field(prefix + "_label_match", row.label_match)
          .field(prefix + "_culprit_match", row.culprit_match);
    }
    report.field("manyflow_flows", flows)
        .field("manyflow_exact_state", pt.exact_state)
        .field("manyflow_sketch_state", pt.sketch_state)
        .field_fixed("manyflow_state_ratio", ratio, 5)
        .field("manyflow_top_flow_kept", pt.top_flow_kept)
        .field("manyflow_top_flow_ranked", pt.top_flow_ranked)
        .field("scenarios_ok", scenarios_ok)
        .field("frontier_ok", frontier_ok);
    if (!report.write(json_path)) return 2;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return frontier_ok ? 0 : 1;
}
