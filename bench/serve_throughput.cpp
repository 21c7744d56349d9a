// serve_throughput — load generator for the vedr_serve ingest plane.
//
//   serve_throughput [--tenants N] [--speedup F] [--shards N] [--queue-cap N]
//                    [--policy block|drop] [--max-seconds F] [--json FILE]
//                    [--smoke]
//
// Pre-decodes the golden replay corpus (four .vtrc traces), then replays
// them into an in-process serve::Server from N concurrent tenant producers
// (round-robin over the corpus), paced so each stream finishes in
// (recorded collective time) / speedup wall seconds, capped by
// --max-seconds. Producers bypass the file-tail transport and offer decoded
// records directly — this bench measures the ingest queue + shard pump +
// incremental diagnosis plane, not fread. --tenants and --shards each start
// that many threads and are at most serve::kMaxThreads (256).
//
// Gates (exit 1 on violation) with the default lossy policy:
//   * zero records dropped at the default queue bound,
//   * every session finishes with its footer digest matched,
//   * the live windowed p99 (serve.window.step_diagnose_p99_ns over 60s, the
//     number an operator reads off /metrics) agrees with the lifetime p99
//     within one log2 bucket — catching any drift between the windowed ring
//     and the registry histogram fed by the same diagnose calls.
// Reports sustained records/s and verdicts/s plus the p50/p99 per-step
// diagnose latency, and writes the standard BENCH_serve.json record.
#include <atomic>
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
#include "obs/trace.h"  // wall_now_ns
#include "replay/trace_reader.h"
#include "serve/server.h"
#include "serve/verdict.h"

namespace {

using namespace vedr;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--tenants N] [--speedup F] [--shards N] [--queue-cap N]\n"
               "          [--policy block|drop] [--max-seconds F] [--json FILE] [--smoke]\n",
               argv0);
  std::exit(2);
}

/// A corpus trace decoded once up front so producers replay from memory.
struct DecodedTrace {
  std::string name;
  std::vector<std::pair<replay::TraceRecord, std::uint64_t>> records;  // rec, offset
  std::uint64_t bytes = 0;
  double cc_seconds = 0;  ///< recorded collective time, the pacing baseline
};

/// Discards verdict lines, counting them — the bench measures the diagnosis
/// plane, not stdout bandwidth.
class CountingSink : public serve::VerdictSink {
 public:
  void on_verdict(const std::string&) override {
    lines_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t lines() const { return lines_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> lines_{0};
};

bool decode_corpus(const std::string& dir, std::vector<DecodedTrace>& out) {
  for (const char* name : {"contention", "incast", "storm", "backpressure"}) {
    DecodedTrace t;
    t.name = name;
    replay::TraceReader reader(dir + "/" + name + ".vtrc");
    replay::TraceRecord rec;
    std::uint64_t offset = reader.bytes_read();
    while (reader.next(rec) == replay::TraceStatus::kOk) {
      t.records.emplace_back(rec, offset);
      offset = reader.bytes_read();
      if (rec.type == replay::RecordType::kFooter)
        t.cc_seconds = static_cast<double>(std::get<replay::TraceFooter>(rec.payload).cc_time) * 1e-9;
    }
    if (reader.error().status != replay::TraceStatus::kOk || t.records.empty()) {
      std::fprintf(stderr, "error: corpus trace %s: %s\n", name, reader.error().str().c_str());
      return false;
    }
    t.bytes = reader.bytes_read();
    out.push_back(std::move(t));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int tenants = 8;
  double speedup = 4.0;
  double max_seconds = 2.0;
  serve::ServerConfig cfg;
  // Lossy by default so the drop-free gate is load-bearing: a queue overrun
  // shows up as a dropped record, not as invisible producer stalling.
  cfg.session.policy = serve::OverflowPolicy::kDropNewest;
  std::string json_path = "BENCH_serve.json";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--tenants") {
      tenants = common::parse_int_or_die("--tenants", next(), 1, serve::kMaxThreads);
    } else if (arg == "--speedup") {
      speedup = common::parse_f64_or_die("--speedup", next());
      if (speedup <= 0) usage(argv[0]);
    } else if (arg == "--shards") {
      cfg.shards = common::parse_int_or_die("--shards", next(), 1, serve::kMaxThreads);
    } else if (arg == "--queue-cap") {
      cfg.session.queue_capacity =
          static_cast<std::size_t>(common::parse_int_or_die("--queue-cap", next(), 1, INT_MAX));
    } else if (arg == "--policy") {
      const std::string p = next();
      if (p == "block") {
        cfg.session.policy = serve::OverflowPolicy::kBlock;
      } else if (p == "drop") {
        cfg.session.policy = serve::OverflowPolicy::kDropNewest;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--max-seconds") {
      max_seconds = common::parse_f64_or_die("--max-seconds", next());
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--smoke") {
      tenants = 2;
      max_seconds = 0.2;
    } else {
      usage(argv[0]);
    }
  }

  std::vector<DecodedTrace> corpus;
  if (!decode_corpus(VEDR_REPLAY_CORPUS_DIR, corpus)) return 3;

  CountingSink sink;
  serve::Server server(cfg, &sink);

  using Clock = std::chrono::steady_clock;
  const auto bench_start = Clock::now();

  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(tenants));
  std::uint64_t offered_records = 0;
  std::vector<std::uint64_t> session_ids;
  for (int t = 0; t < tenants; ++t) {
    const DecodedTrace& trace = corpus[static_cast<std::size_t>(t) % corpus.size()];
    const std::uint64_t sid =
        server.open_session(trace.name + "-" + std::to_string(t));
    session_ids.push_back(sid);
    offered_records += trace.records.size();
    // Uniform pacing across the stream: record i lands at i/n of the target
    // duration. speedup compresses the recorded collective time; the cap
    // keeps pathological traces from stretching CI.
    const double duration_s = std::min(trace.cc_seconds / speedup, max_seconds);
    producers.emplace_back([&server, &trace, sid, duration_s] {
      const auto t0 = Clock::now();
      const std::size_t n = trace.records.size();
      for (std::size_t i = 0; i < n; ++i) {
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      duration_s * static_cast<double>(i) /
                                      static_cast<double>(n)));
        std::this_thread::sleep_until(due);
        server.offer(sid, trace.records[i].first, trace.records[i].second);
      }
      server.close_session(sid, replay::TraceError{}, trace.bytes);
    });
  }
  for (auto& p : producers) p.join();
  server.wait_all_finished();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - bench_start).count();

  const obs::MetricsSnapshot snap = server.metrics_snapshot();
  const std::int64_t dropped = snap.counters.at("serve.queue_dropped");
  const std::int64_t blocked = snap.counters.at("serve.queue_blocked");
  const std::int64_t high_watermark = snap.counters.at("serve.queue_high_watermark");
  const std::uint64_t verdicts = sink.lines();

  std::int64_t p50_ns = 0, p99_ns = 0;
  std::uint64_t diagnose_calls = 0;
  const auto hist = snap.hists.find("serve.step_diagnose_ns");
  if (hist != snap.hists.end()) {
    p50_ns = hist->second.value_at_quantile(0.50);
    p99_ns = hist->second.value_at_quantile(0.99);
    diagnose_calls = hist->second.count();
  }

  // Windowed-vs-lifetime agreement: a bench run fits inside the 60s window,
  // so the rolling p99 must land in the same log2 bucket (+/- 1 for samples
  // straddling an interval boundary mid-scrape) as the lifetime one.
  const obs::Histogram win_hist = server.live_metrics().step_diagnose_ns.window(
      serve::LiveMetrics::kWindowsNs[1], obs::wall_now_ns());
  const std::int64_t win_p99_ns = win_hist.value_at_quantile(0.99);
  const bool windowed_ok =
      diagnose_calls == 0 ||
      std::abs(obs::Histogram::bucket_of(win_p99_ns) - obs::Histogram::bucket_of(p99_ns)) <= 1;

  bool all_ok = true;
  for (const std::uint64_t sid : session_ids) {
    const serve::Session* s = server.find_session(sid);
    if (s == nullptr || s->state() != serve::SessionState::kFinished ||
        !s->digest_matched()) {
      all_ok = false;
      std::fprintf(stderr, "gate: session %llu did not finish with a matching digest\n",
                   static_cast<unsigned long long>(sid));
    }
  }
  server.shutdown();

  bench::print_header("serve ingest plane");
  std::printf("tenants: %d  shards: %d  queue cap: %zu  policy: %s\n", tenants, cfg.shards,
              cfg.session.queue_capacity,
              cfg.session.policy == serve::OverflowPolicy::kBlock ? "block" : "drop");
  std::printf("offered %llu records across %zu sessions in %.3fs (%.0f records/s)\n",
              static_cast<unsigned long long>(offered_records), session_ids.size(), wall_s,
              static_cast<double>(offered_records) / wall_s);
  std::printf("verdicts: %llu (%.0f/s)  step diagnoses: %llu  p50 %lld ns  p99 %lld ns\n",
              static_cast<unsigned long long>(verdicts),
              static_cast<double>(verdicts) / wall_s,
              static_cast<unsigned long long>(diagnose_calls),
              static_cast<long long>(p50_ns), static_cast<long long>(p99_ns));
  std::printf("windowed p99 (60s): %lld ns  [%s lifetime bucket]\n",
              static_cast<long long>(win_p99_ns), windowed_ok ? "within one" : "OFF");
  std::printf("queue: dropped %lld  blocked %lld  high watermark %lld\n",
              static_cast<long long>(dropped), static_cast<long long>(blocked),
              static_cast<long long>(high_watermark));

  bench::BenchReport report("serve_throughput");
  report.field("tenants", static_cast<std::int64_t>(tenants))
      .field("shards", static_cast<std::int64_t>(cfg.shards))
      .field("queue_capacity", static_cast<std::int64_t>(cfg.session.queue_capacity))
      .field("policy",
             cfg.session.policy == serve::OverflowPolicy::kBlock ? "block" : "drop")
      .field_fixed("speedup", speedup, 2)
      .field_fixed("wall_seconds", wall_s, 4)
      .field("records", static_cast<std::int64_t>(offered_records))
      .field_fixed("records_per_sec", static_cast<double>(offered_records) / wall_s, 1)
      .field("verdicts", static_cast<std::int64_t>(verdicts))
      .field_fixed("verdicts_per_sec", static_cast<double>(verdicts) / wall_s, 1)
      .field("step_diagnoses", static_cast<std::int64_t>(diagnose_calls))
      .field("step_diagnose_p50_ns", p50_ns)
      .field("step_diagnose_p99_ns", p99_ns)
      .field("windowed_p99_ns", win_p99_ns)
      .field("windowed_p99_ok", windowed_ok)
      .field("queue_dropped", dropped)
      .field("queue_blocked", blocked)
      .field("queue_high_watermark", high_watermark)
      .field("all_sessions_ok", all_ok);
  if (!report.write(json_path)) return 3;
  std::printf("wrote %s\n", json_path.c_str());

  if (dropped != 0) {
    std::fprintf(stderr, "gate: %lld records dropped at queue bound %zu\n",
                 static_cast<long long>(dropped), cfg.session.queue_capacity);
    return 1;
  }
  if (!windowed_ok) {
    std::fprintf(stderr,
                 "gate: windowed p99 %lld ns disagrees with lifetime p99 %lld ns "
                 "by more than one log2 bucket\n",
                 static_cast<long long>(win_p99_ns), static_cast<long long>(p99_ns));
    return 1;
  }
  return all_ok ? 0 : 1;
}
