// vedr_determinism — reruns a seeded scenario and compares full-run digests.
//
//   vedr_determinism [--scenario contention|incast|storm|backpressure]
//                    [--case N] [--system vedrfolnir|hawkeye-max|hawkeye-min|full]
//                    [--scale F] [--runs N] [--shards N] [--k K]
//                    [--obs-trace FILE.json]
//
// --shards 1 (default) runs the serial lane (one domain): its four scenario
// digests are pinned and must never change. --shards N>1 runs the fabric's
// pod domains on the conservative parallel engine, for every system — a
// separate digest lane whose value is identical for every N>=2, which CI
// checks by diffing --shards 2 against --shards 4.
//
// Each run folds the complete packet-event stream plus every diagnosis-visible
// output into a 64-bit digest (eval::run_case_digest). All runs of the same
// seeded case must produce bit-identical digests; any divergence means hidden
// nondeterminism (hash-order leakage, uninitialized reads, wall-clock use)
// crept into the simulator or diagnosis core. Exits 0 on agreement, 1 on
// divergence.
//
// --obs-trace turns on the FULL observability tap (span tracing and hot-path
// metric sampling) for every run and writes the combined Chrome trace JSON.
// Its purpose is adversarial: digests printed with the tap on must equal the
// digests the same case prints with it off — observability is a tap, never a
// participant. CI runs this tool both ways and compares.
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.h"
#include "eval/experiment.h"
#include "net/routing.h"
#include "obs/trace.h"
#include "replay/trace_format.h"

namespace {

using namespace vedr;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario contention|incast|storm|backpressure] [--case N]\n"
               "          [--system vedrfolnir|hawkeye-max|hawkeye-min|full] [--scale F]\n"
               "          [--runs N] [--shards N] [--k K] [--obs-trace FILE.json]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  eval::ScenarioType scenario = eval::ScenarioType::kFlowContention;
  eval::SystemKind system = eval::SystemKind::kVedrfolnir;
  int case_id = 0;
  int runs = 2;
  int shards = 1;
  int fat_tree_k = 4;
  double scale = 1.0 / 64.0;
  std::string obs_trace_path;

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
      runs = common::parse_int_or_die("--runs", next(), 2, INT_MAX);
    } else if (arg == "--shards") {
      shards = common::parse_int_or_die("--shards", next(), 1, INT_MAX);
    } else if (arg == "--k") {
      fat_tree_k = common::parse_int_or_die("--k", next(), 4, replay::kMaxFatTreeK);
      if (fat_tree_k % 2 != 0) usage(argv[0]);
    } else if (arg == "--obs-trace") {
      obs_trace_path = next();
    } else {
      usage(argv[0]);
    }
  }

  if (!obs_trace_path.empty()) {
    obs::trace_enable();
    obs::metrics_enable();
  }

  eval::RunConfig cfg;
  cfg.shards = shards;
  cfg.fat_tree_k = fat_tree_k;
  eval::ScenarioParams params;
  params.scale = scale;
  const net::Topology topo = net::make_fat_tree(fat_tree_k, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  const auto spec = eval::make_scenario(scenario, case_id, topo, routing, params);

  std::printf("case: %s\n", spec.str().c_str());
  std::printf("system: %s, %d runs, %d shards, k=%d\n", eval::to_string(system), runs, shards,
              fat_tree_k);

  std::vector<std::uint64_t> digests;
  digests.reserve(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t d = eval::run_case_digest(spec, system, cfg);
    std::printf("run %d digest: %016" PRIx64 "\n", r, d);
    digests.push_back(d);
  }

  if (!obs_trace_path.empty() && !obs::write_chrome_trace(obs_trace_path)) return 2;

  bool ok = true;
  for (int r = 1; r < runs; ++r)
    if (digests[static_cast<std::size_t>(r)] != digests[0]) ok = false;

  if (!ok) {
    std::fprintf(stderr,
                 "DIVERGENCE: same-seed runs produced different digests — the\n"
                 "simulator or diagnosis core has hidden nondeterminism.\n");
    return 1;
  }
  std::printf("deterministic: all %d runs agree\n", runs);
  return 0;
}
