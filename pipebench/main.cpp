// pipebench — the pipeline benchmark program.
//
//   pipebench --workload simulate|replay|serve --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//   pipebench --describe
//
// Runs one workload from a seed and prints, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 0 when
// every output matched its reference, 1 when one did not, 2 when the run
// could not be made (usage, I/O). --describe prints the workload and metric
// catalogue the self-test compares with BENCHMARK.json.
#include <sys/prctl.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/json.h"
#include "workloads.h"

#ifndef PIPEBENCH_CORPUS_DIR
#error "PIPEBENCH_CORPUS_DIR must be defined by the build"
#endif

namespace {

using pipebench::Workload;

struct Metric {
  const char* name;
  const char* unit;
  const char* better;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"cases_per_s", "cases/s", "higher"},
    {"replay_records_per_s", "records/s", "higher"},
    {"serve_records_per_s", "records/s", "higher"},
    {"peak_rss_mb", "MB", "lower"},
};

const Metric kPerLayer[] = {
    {"sim.events", "count", "lower"},
    {"sim.events_per_s", "events/s", "higher"},
    {"sim.sharded.windows", "count", "lower"},
    {"sim.sharded.idle_gap_jumps", "count", "lower"},
    {"sim.sharded.events_per_window_p50", "events", "higher"},
    {"sim.sharded.handoffs", "count", "lower"},
    {"sim.sharded.spills", "count", "lower"},
    {"sim.sharded.domain_skew", "ratio", "lower"},
    {"net.packets", "count", "lower"},
    {"net.events_per_packet", "ratio", "lower"},
    {"net.pfc_pause_frames", "count", "lower"},
    {"net.drops", "count", "lower"},
    {"telemetry.state_bytes", "bytes", "lower"},
    {"telemetry.collected_bytes", "bytes", "lower"},
    {"telemetry.bandwidth_bytes", "bytes", "lower"},
    {"collective.step_records", "count", "lower"},
    {"core.polls", "count", "lower"},
    {"core.notifications", "count", "lower"},
    {"core.switch_reports", "count", "lower"},
    {"core.reports_per_poll", "ratio", "lower"},
    {"core.analyzer_share", "ratio", "lower"},
    {"core.ingest_ns_per_record", "ns", "lower"},
    {"core.ingest_share", "ratio", "lower"},
    {"core.diagnose_us_per_trace", "us", "lower"},
    {"core.diagnose_share", "ratio", "lower"},
    {"replay.decode_ns_per_frame", "ns", "lower"},
    {"replay.decode_mb_per_s", "MB/s", "higher"},
    {"replay.decode_share", "ratio", "lower"},
    {"replay.encode_mb_per_s", "MB/s", "higher"},
    {"replay.frames", "count", "lower"},
    {"replay.bytes", "bytes", "lower"},
    {"serve.offer_ns_mean", "ns", "lower"},
    {"serve.cpu_us_per_record", "us", "lower"},
    {"serve.sys_cpu_share", "ratio", "lower"},
    {"serve.gen_decode_share", "ratio", "lower"},
    {"serve.gen_offer_share", "ratio", "lower"},
    {"serve.gen_wait_share", "ratio", "higher"},
    {"serve.verdict_lag_us_p50", "us", "lower"},
    {"serve.verdict_lag_us_p99", "us", "lower"},
    {"serve.verdict_lag_n", "count", "higher"},
    {"serve.step_diagnose_ns_p50", "ns", "lower"},
    {"serve.step_diagnose_ns_p99", "ns", "lower"},
    {"serve.queue_high_watermark", "count", "lower"},
    {"serve.rss_kb_per_session", "KB", "lower"},
    {"serve.verdicts", "count", "higher"},
    {"bench.trace_overhead_pct", "%", "lower"},
    {"bench.span_coverage_pct", "%", "higher"},
};

const char* const kWorkloads[] = {"simulate", "replay", "serve"};

void write_catalogue(vedr::obs::JsonWriter& w, const char* key, const Metric* begin,
                     const Metric* end) {
  w.key(key);
  w.begin_array();
  for (const Metric* m = begin; m != end; ++m) {
    w.begin_object();
    w.kv("name", m->name);
    w.kv("unit", m->unit);
    w.kv("better", m->better);
    w.end_object();
  }
  w.end_array();
}

int describe() {
  std::string out;
  vedr::obs::JsonWriter w(&out);
  w.begin_object();
  w.key("workloads");
  w.begin_array();
  for (const char* name : kWorkloads) w.value(name);
  w.end_array();
  write_catalogue(w, "end_to_end", std::begin(kEndToEnd), std::end(kEndToEnd));
  write_catalogue(w, "per_layer", std::begin(kPerLayer), std::end(kPerLayer));
  w.end_object();
  std::printf("%s\n", out.c_str());
  return 0;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload simulate|replay|serve --seed N --seconds S --trace 0|1\n"
               "          [--work-dir DIR]\n"
               "       %s --describe\n",
               argv0, argv0);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  if (*s == '\0' || *s == '-') return false;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  // A wrapper killed from outside takes the benchmark down with it.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  pipebench::Options opt;
  opt.work_dir = ".bench_build/pipebench";
  opt.corpus_dir = PIPEBENCH_CORPUS_DIR;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--describe") return describe();
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      const std::string w = value;
      have_workload = true;
      if (w == "simulate") {
        opt.workload = Workload::kSimulate;
      } else if (w == "replay") {
        opt.workload = Workload::kReplay;
      } else if (w == "serve") {
        opt.workload = Workload::kServe;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--seed" && parse_u64(value, n)) {
      opt.seed = n;
    } else if (arg == "--seconds" && parse_u64(value, n) && n >= 1 && n <= 600) {
      opt.seconds = static_cast<int>(n);
    } else if (arg == "--trace" && parse_u64(value, n) && n <= 1) {
      opt.trace = n == 1;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      usage(argv[0]);
    }
  }
  if (!have_workload) usage(argv[0]);

  const pipebench::Report report = pipebench::run_workload(opt);
  if (!report.error.empty()) {
    std::fprintf(stderr, "pipebench: %s\n", report.error.c_str());
    return 2;
  }

  const Metric* begin = opt.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const Metric* end = opt.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  if (report.metrics.size() != static_cast<std::size_t>(end - begin)) {
    std::fprintf(stderr, "pipebench: produced %zu metrics, catalogue has %td\n",
                 report.metrics.size(), end - begin);
    return 2;
  }
  std::string out;
  vedr::obs::JsonWriter w(&out);
  w.begin_object();
  w.kv("correct", report.correct);
  w.kv("attempted", report.attempted);
  w.kv("failed", report.failed);
  w.key("metrics");
  w.begin_object();
  for (const Metric* m = begin; m != end; ++m) {
    const auto it = report.metrics.find(m->name);
    if (it == report.metrics.end()) {
      std::fprintf(stderr, "pipebench: metric %s was not measured\n", m->name);
      return 2;
    }
    std::fprintf(stderr, "%-36s %16.6g %s\n", m->name, it->second, m->unit);
    w.key(m->name);
    w.begin_object();
    w.kv("value", it->second);
    w.kv("unit", m->unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", out.c_str());
  return report.correct ? 0 : 1;
}
