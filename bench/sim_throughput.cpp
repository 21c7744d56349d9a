// sim_throughput — event-engine microbench: drives one full scenario case
// end-to-end (simulator + fabric + diagnosis plane) and reports engine
// throughput. This is the perf trajectory for the typed-event scheduler:
// every figure in the evaluation is bounded by how fast this loop runs.
//
//   sim_throughput [--scenario contention|incast|storm|backpressure]
//                  [--case N] [--system vedrfolnir|hawkeye-max|hawkeye-min|full]
//                  [--scale F] [--runs N] [--shards N] [--shard-report]
//                  [--k K] [--sweep] [--smoke] [--json PATH]
//                  [--obs-trace FILE.json] [--obs-metrics FILE]
//
// Prints events/sec, packets/sec, wall time, peak RSS, the engine's events
// and overflow-heap pushes per delivered packet, and the split of popped
// events by EventKind (DESIGN.md §8); --json also emits a machine-readable
// record (CI writes it as BENCH_sim.json). --smoke shrinks the case so the
// whole run fits in a CI smoke-test budget. The obs flags
// turn on the observability taps during the timed runs — that is the point:
// comparing events/sec with and without them measures the enabled-tracing
// overhead (EXPERIMENTS.md records the budget: <5%).
//
// --shards N runs the case on the conservative sharded engine (DESIGN.md
// §14) with N worker threads; --k sets the fat-tree radix. --sweep runs the
// scaling matrix shards {1,2,4,8} x K {4,8} and emits one flat JSON field
// set per point (k<K>_s<S>_*), plus the K=8 parallel speedup
// (s8 vs s1). The >= 3x speedup acceptance gate is enforced only when the
// machine has at least 8 hardware threads — on smaller runners (including
// 1-core CI boxes) the engine's blocking barriers make extra shards pure
// overhead, so the sweep is report-only there (gate_enforced=false).
//
// --shard-report (not with --sweep) prints the engine's introspection
// table after the timed runs: per-worker barrier-wait ratios, per-domain
// event distributions, handoff-lane spills. It turns on per-window wall
// timing inside the workers, so don't compare its events/sec against an
// untimed run — use it to see WHERE a sharded run waits, not how fast it is.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/env.h"
#include "eval/experiment.h"
#include "net/routing.h"
#include "obs/metrics.h"
#include "replay/trace_format.h"
#include "sim/shard_report.h"

namespace {

using namespace vedr;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario contention|incast|storm|backpressure] [--case N]\n"
               "          [--system vedrfolnir|hawkeye-max|hawkeye-min|full] [--scale F]\n"
               "          [--runs N] [--shards N] [--k K] [--sweep] [--smoke] [--json PATH]\n"
               "          [--obs-trace FILE.json] [--obs-metrics FILE]\n",
               argv0);
  std::exit(2);
}

long peak_rss_kb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return -1;
  return ru.ru_maxrss;  // KiB on Linux
}

struct Measurement {
  double wall = 0.0;  ///< best-of-N seconds
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t heap_pushes = 0;
  std::array<std::uint64_t, sim::kNumEventKinds> pops{};
  std::shared_ptr<const obs::MetricsSnapshot> metrics;
  std::shared_ptr<const sim::ShardReport> shard_report;  ///< last run's
};

/// Best-of-N wall time: the engine's speed is the fastest run; slower runs
/// measure the machine, not the scheduler.
Measurement measure(const eval::ScenarioSpec& spec, eval::SystemKind system,
                    const eval::RunConfig& cfg, int runs, bool verbose) {
  Measurement m;
  for (int r = 0; r < runs; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const eval::CaseResult result = eval::run_case(spec, system, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || wall < m.wall) m.wall = wall;
    m.events = result.sim_events;
    m.packets = result.packets_delivered;
    m.heap_pushes = result.heap_pushes;
    m.pops = result.pops_by_kind;
    m.metrics = result.metrics;
    m.shard_report = result.shard_report;
    if (verbose) {
      std::printf("run %d: %.3fs  (%.3fM events, %.3fM packets)\n", r, wall,
                  static_cast<double>(m.events) / 1e6, static_cast<double>(m.packets) / 1e6);
    }
  }
  return m;
}

/// `n` per delivered packet. The engine's counts are exact, so one run
/// suffices.
double per_packet(std::uint64_t n, const Measurement& m) {
  return m.packets > 0 ? static_cast<double>(n) / static_cast<double>(m.packets) : 0;
}

/// Share of popped events of kind index `k`.
double kind_share(const Measurement& m, std::size_t k) {
  return m.events > 0 ? static_cast<double>(m.pops[k]) / static_cast<double>(m.events) : 0;
}

/// The per-kind split: a text line per kind that ran, and one JSON field
/// per kind (`share_packet_delivery`, ...).
void print_kind_split(const Measurement& m) {
  std::printf("events by kind:\n");
  for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
    if (m.pops[k] == 0) continue;
    std::printf("  %-17s %12llu  %6.2f%%\n", sim::to_string(static_cast<sim::EventKind>(k)),
                static_cast<unsigned long long>(m.pops[k]), 100.0 * kind_share(m, k));
  }
}

void add_kind_split(bench::BenchReport& report, const Measurement& m) {
  for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
    std::string key = std::string("share_") + sim::to_string(static_cast<sim::EventKind>(k));
    std::replace(key.begin(), key.end(), '-', '_');
    report.field_fixed(key, kind_share(m, k), 4);
  }
}

eval::ScenarioSpec spec_for(eval::ScenarioType scenario, int case_id, int k,
                            const eval::RunConfig& cfg, double scale) {
  eval::ScenarioParams params;
  params.scale = scale;
  const net::Topology topo = net::make_fat_tree(k, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  return eval::make_scenario(scenario, case_id, topo, routing, params);
}

}  // namespace

int main(int argc, char** argv) {
  eval::ScenarioType scenario = eval::ScenarioType::kPfcBackpressure;
  eval::SystemKind system = eval::SystemKind::kVedrfolnir;
  int case_id = 0;
  int runs = 3;
  int shards = 1;
  bool shard_report = false;
  int fat_tree_k = 4;
  double scale = 1.0 / 64.0;
  bool smoke = false;
  bool sweep = false;
  std::string json_path;
  obs::ObsCli obs_cli;

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
    } else if (arg == "--runs") {
      runs = common::parse_int_or_die("--runs", next(), 1, INT_MAX);
    } else if (arg == "--shards") {
      shards = common::parse_int_or_die("--shards", next(), 1, INT_MAX);
    } else if (arg == "--shard-report") {
      shard_report = true;
    } else if (arg == "--k") {
      fat_tree_k = common::parse_int_or_die("--k", next(), 4, replay::kMaxFatTreeK);
      if (fat_tree_k % 2 != 0) usage(argv[0]);
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json") {
      json_path = next();
    } else if (obs_cli.parse(arg, next)) {
      // handled
    } else {
      usage(argv[0]);
    }
  }
  if (smoke) {
    scale = std::min(scale, 1.0 / 256.0);
    runs = 1;
  }
  if (shard_report && sweep) {
    std::fprintf(stderr, "error: --shard-report does not combine with --sweep\n");
    return 2;
  }

  eval::RunConfig cfg;
  obs_cli.enable();
  cfg.capture_metrics = obs_cli.want_metrics();
  cfg.capture_shard_report = shard_report;

  if (sweep) {
    // The satellite scaling matrix: shards x radix, backpressure (the
    // heaviest scenario: the incast cascade keeps every pod busy).
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    const bool gate_enforced = hw >= 8;
    const std::vector<int> shard_counts = {1, 2, 4, 8};
    const std::vector<int> radixes = {4, 8};

    std::printf("sweep: %s case %d, scale %g, %d run(s)/point, %d hw thread(s)%s\n",
                eval::cli_name(scenario), case_id, scale, runs, hw,
                gate_enforced ? "" : " (speedup gate report-only)");
    std::printf("%4s %7s %12s %14s %12s %13s %15s\n", "K", "shards", "wall_s", "events",
                "events/s", "events/packet", "overflow/packet");

    bench::BenchReport report("sim_throughput");
    report.field("sweep", true)
        .field("scenario", eval::cli_name(scenario))
        .field("case_id", case_id)
        .field("scale", scale)
        .field("runs", runs)
        .field("hw_threads", hw);

    double wall_k8_s1 = 0.0, wall_k8_s8 = 0.0;
    Measurement k8_s1;
    for (const int k : radixes) {
      const eval::ScenarioSpec spec = spec_for(scenario, case_id, k, cfg, scale);
      for (const int s : shard_counts) {
        eval::RunConfig point_cfg = cfg;
        point_cfg.shards = s;
        point_cfg.fat_tree_k = k;
        const Measurement m = measure(spec, system, point_cfg, runs, /*verbose=*/false);
        const double eps = m.wall > 0 ? static_cast<double>(m.events) / m.wall : 0;
        std::printf("%4d %7d %12.3f %14llu %12.0f %13.3f %15.4f\n", k, s, m.wall,
                    static_cast<unsigned long long>(m.events), eps, per_packet(m.events, m),
                    per_packet(m.heap_pushes, m));
        char prefix[32];
        std::snprintf(prefix, sizeof prefix, "k%d_s%d_", k, s);
        const std::string p(prefix);
        report.field_fixed(p + "wall_seconds", m.wall, 6)
            .field(p + "events", m.events)
            .field_fixed(p + "events_per_sec", eps, 0)
            .field_fixed(p + "events_per_packet", per_packet(m.events, m), 4)
            .field_fixed(p + "overflow_pushes_per_packet", per_packet(m.heap_pushes, m), 4);
        if (k == 8 && s == 1) {
          wall_k8_s1 = m.wall;
          k8_s1 = m;
        }
        if (k == 8 && s == 8) wall_k8_s8 = m.wall;
      }
    }

    const double speedup = wall_k8_s8 > 0 ? wall_k8_s1 / wall_k8_s8 : 0;
    const bool sweep_ok = !gate_enforced || speedup >= 3.0;
    std::printf("K=8 speedup (shards 8 vs 1): %.2fx%s\n", speedup,
                gate_enforced ? (sweep_ok ? "  (gate >= 3x: PASS)" : "  (gate >= 3x: FAIL)")
                              : "  (gate not enforced: < 8 hw threads)");

    std::printf("serial K=8 ");
    print_kind_split(k8_s1);

    // The unprefixed engine rows name the serial K=8 point (ROADMAP item 4).
    report.field_fixed("events_per_packet", per_packet(k8_s1.events, k8_s1), 4)
        .field_fixed("overflow_pushes_per_packet", per_packet(k8_s1.heap_pushes, k8_s1), 4);
    add_kind_split(report, k8_s1);
    report.field_fixed("speedup_k8", speedup, 3)
        .field("gate_enforced", gate_enforced)
        .field("sweep_ok", sweep_ok)
        .field("peak_rss_kb", static_cast<std::int64_t>(peak_rss_kb()));
    if (!json_path.empty()) {
      if (!report.write(json_path)) return 2;
      std::printf("wrote %s\n", json_path.c_str());
    }
    if (!obs_cli.finish(nullptr, {{"bench", "sim_throughput"},
                                  {"scenario", eval::cli_name(scenario)},
                                  {"system", eval::to_string(system)}})) {
      return 2;
    }
    return sweep_ok ? 0 : 1;
  }

  cfg.shards = shards;
  cfg.fat_tree_k = fat_tree_k;
  const eval::ScenarioSpec spec = spec_for(scenario, case_id, fat_tree_k, cfg, scale);

  std::printf("case: %s\n", spec.str().c_str());
  std::printf("system: %s, %d run(s), scale %g, %d shard(s), k=%d\n", eval::to_string(system),
              runs, scale, shards, fat_tree_k);

  const Measurement m = measure(spec, system, cfg, runs, /*verbose=*/true);

  const double events_per_sec = m.wall > 0 ? static_cast<double>(m.events) / m.wall : 0;
  const double packets_per_sec = m.wall > 0 ? static_cast<double>(m.packets) / m.wall : 0;
  const long rss_kb = peak_rss_kb();
  std::printf("events/sec:  %.0f\n", events_per_sec);
  std::printf("packets/sec: %.0f\n", packets_per_sec);
  std::printf("events / delivered packet: %.4f\n", per_packet(m.events, m));
  std::printf("overflow pushes / delivered packet: %.4f\n", per_packet(m.heap_pushes, m));
  print_kind_split(m);
  std::printf("wall:        %.3fs (best of %d)\n", m.wall, runs);
  std::printf("peak RSS:    %ld KiB\n", rss_kb);
  if (shard_report) std::printf("\n%s", m.shard_report->table().c_str());

  if (!json_path.empty()) {
    bench::BenchReport report("sim_throughput");
    report.field("scenario", eval::cli_name(scenario))
        .field("system", eval::to_string(system))
        .field("case_id", case_id)
        .field("scale", scale)
        .field("runs", runs)
        .field("shards", shards)
        .field("fat_tree_k", fat_tree_k)
        .field("events", m.events)
        .field("packets", m.packets)
        .field_fixed("wall_seconds", m.wall, 6)
        .field_fixed("events_per_sec", events_per_sec, 0)
        .field_fixed("packets_per_sec", packets_per_sec, 0)
        .field_fixed("events_per_packet", per_packet(m.events, m), 4)
        .field_fixed("overflow_pushes_per_packet", per_packet(m.heap_pushes, m), 4);
    add_kind_split(report, m);
    report.field("peak_rss_kb", static_cast<std::int64_t>(rss_kb));
    if (!report.write(json_path)) return 2;
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!obs_cli.finish(m.metrics.get(), {{"bench", "sim_throughput"},
                                        {"scenario", eval::cli_name(scenario)},
                                        {"system", eval::to_string(system)}})) {
    return 2;
  }
  return 0;
}
