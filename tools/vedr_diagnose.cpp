// vedr_diagnose — command-line front end for the evaluation harness.
//
//   vedr_diagnose [--scenario contention|incast|storm|backpressure]
//                 [--case N] [--system vedrfolnir|hawkeye-max|hawkeye-min|full]
//                 [--scale F] [--shards N] [--shard-report] [--k K]
//                 [--json] [--dot PREFIX] [--record FILE.vtrc]
//                 [--telemetry exact|sketch] [--sketch-width N]
//                 [--sketch-depth N] [--sketch-k N]
//                 [--obs-trace FILE.json] [--obs-metrics FILE]
//
// Runs one seeded case end to end and prints the diagnosis as text (default)
// or JSON (--json); --dot writes the waiting-graph DOT file for rendering.
// --record streams the diagnosis plane's complete input into a .vtrc trace
// that tools/vedr_replay can re-diagnose offline, at any --shards. --obs-trace writes the
// run's timeline spans as Chrome trace_event JSON (open in Perfetto);
// --obs-metrics writes the case's metric snapshot as Prometheus text (or
// JSON when the path ends in .json). Both are taps: the diagnosis and its
// exit code are identical with or without them.
//
// --shard-report prints the engine's end-of-run introspection table to
// stderr: per-worker barrier-wait ratios, per-domain event distributions,
// and handoff-lane occupancy/spills (DESIGN.md §15). Also a tap — digests
// stay byte-identical with it on.
//
// --telemetry sketch runs the fabric's collection plane on the bounded
// count-min/top-k backend instead of the exact per-flow tables; the sketch
// knobs size it. Incompatible with --record: traces always capture exact
// ground truth (replay them with `vedr_replay --telemetry sketch` instead).
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/env.h"
#include "core/json_export.h"
#include "eval/experiment.h"
#include "net/routing.h"
#include "obs/cli.h"
#include "obs/json.h"
#include "replay/trace_format.h"
#include "sim/shard_report.h"
#include "telemetry_flags.h"

namespace {

using namespace vedr;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario contention|incast|storm|backpressure] [--case N]\n"
               "          [--system vedrfolnir|hawkeye-max|hawkeye-min|full] [--scale F]\n"
               "          [--shards N] [--shard-report] [--k K]\n"
               "          [--json] [--dot PREFIX] [--record FILE.vtrc]\n"
               "%s"
               "          [--obs-trace FILE.json] [--obs-metrics FILE]\n",
               argv0, tools::TelemetryCli::usage_line());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  eval::ScenarioType scenario = eval::ScenarioType::kFlowContention;
  eval::SystemKind system = eval::SystemKind::kVedrfolnir;
  int case_id = 0;
  int shards = 1;
  bool shard_report = false;
  int fat_tree_k = 4;
  double scale = 1.0 / 64.0;
  bool as_json = false;
  std::string dot_prefix;
  std::string record_path;
  obs::ObsCli obs_opts;
  tools::TelemetryCli telemetry_opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenario") {
      const auto s = eval::parse_scenario(next());
      if (!s) usage(argv[0]);
      scenario = *s;
    } else if (arg == "--system") {
      const auto s = eval::parse_system(next());
      if (!s) usage(argv[0]);
      system = *s;
    } else if (arg == "--case") {
      case_id = common::parse_int_or_die("--case", next(), 0, INT_MAX);
    } else if (arg == "--scale") {
      scale = common::parse_f64_or_die("--scale", next());
      if (scale <= 0) usage(argv[0]);
    } else if (arg == "--shards") {
      shards = common::parse_int_or_die("--shards", next(), 1, INT_MAX);
    } else if (arg == "--shard-report") {
      shard_report = true;
    } else if (arg == "--k") {
      fat_tree_k = common::parse_int_or_die("--k", next(), 4, replay::kMaxFatTreeK);
      if (fat_tree_k % 2 != 0) usage(argv[0]);
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--dot") {
      dot_prefix = next();
    } else if (arg == "--record") {
      record_path = next();
    } else if (obs_opts.parse(arg, next)) {
      // handled
    } else if (telemetry_opts.parse(arg, next, [&] { usage(argv[0]); })) {
      // handled
    } else {
      usage(argv[0]);
    }
  }
  if (telemetry_opts.sketch() && !record_path.empty()) {
    std::fprintf(stderr,
                 "error: --record captures exact ground truth and cannot run with "
                 "--telemetry sketch; record exact, then `vedr_replay --telemetry sketch`\n");
    return 2;
  }

  eval::RunConfig cfg;
  cfg.netcfg.telemetry = telemetry_opts.params();
  cfg.shards = shards;
  cfg.fat_tree_k = fat_tree_k;
  obs_opts.enable();
  cfg.capture_metrics = obs_opts.want_metrics();
  cfg.capture_shard_report = shard_report;
  eval::ScenarioParams params;
  params.scale = scale;
  const net::Topology topo = net::make_fat_tree(fat_tree_k, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  const auto spec = eval::make_scenario(scenario, case_id, topo, routing, params);

  eval::CaseResult result;
  if (record_path.empty()) {
    result = eval::run_case(spec, system, cfg);
  } else {
    std::string record_error;
    result = eval::record_case(spec, system, cfg, record_path, &record_error);
    if (!record_error.empty()) {
      std::fprintf(stderr, "error: --record %s: %s\n", record_path.c_str(),
                   record_error.c_str());
      return 3;
    }
    std::fprintf(stderr, "recorded %s\n", record_path.c_str());
  }

  if (as_json) {
    std::string line;
    obs::JsonWriter w(&line);
    w.begin_object();
    w.kv("scenario", eval::to_string(spec.type));
    w.kv("case", spec.case_id);
    w.kv("system", eval::to_string(system));
    w.kv("outcome", result.outcome.label());
    w.kv("cc_completed", result.cc_completed);
    w.kv("cc_time_ns", static_cast<std::int64_t>(result.cc_time));
    w.kv("telemetry_bytes", result.telemetry_bytes);
    w.kv("bandwidth_bytes", result.bandwidth_bytes);
    w.key("diagnosis");
    w.raw(core::json::diagnosis_to_json(result.diagnosis));
    w.end_object();
    std::printf("%s\n", line.c_str());
  } else {
    std::printf("case: %s\n", spec.str().c_str());
    std::printf("system: %s  outcome: %s  collective: %.2f ms%s\n", eval::to_string(system),
                result.outcome.label(), sim::to_ms(result.cc_time),
                result.cc_completed ? "" : " (DID NOT COMPLETE)");
    std::printf("overhead: telemetry %lld B, bandwidth %lld B, %lld reports\n",
                static_cast<long long>(result.telemetry_bytes),
                static_cast<long long>(result.bandwidth_bytes),
                static_cast<long long>(result.report_count));
    std::printf("telemetry: %s backend, %lld B switch-resident state\n",
                telemetry_opts.sketch() ? "sketch" : "exact",
                static_cast<long long>(result.telemetry_state_bytes));
    std::printf("\n%s", result.diagnosis.summary().c_str());
  }

  // stderr, like all taps: stdout stays parseable (--json pipelines).
  if (shard_report) std::fprintf(stderr, "%s", result.shard_report->table().c_str());

  if (!dot_prefix.empty()) {
    // Re-deriving graphs needs the analyzer; run_case returns only the
    // diagnosis, so export what it carries: findings + critical path are in
    // the JSON; the waiting graph DOT needs a live run — document that the
    // fig14 harness provides full graph exports.
    std::ofstream out(dot_prefix + "_diagnosis.json");
    out << core::json::diagnosis_to_json(result.diagnosis);
    std::fprintf(stderr, "wrote %s_diagnosis.json (graph DOT exports: see fig14_case_study)\n",
                 dot_prefix.c_str());
  }

  if (!obs_opts.finish(result.metrics.get(),
                       {{"scenario", eval::to_string(spec.type)},
                        {"system", eval::to_string(system)},
                        {"case_id", std::to_string(spec.case_id)}})) {
    return 3;
  }
  return result.outcome.tp ? 0 : 1;
}
