// vedr_serve — always-on multi-tenant streaming diagnosis daemon.
//
//   vedr_serve --follow FILE[=TENANT] [--follow ...]
//              [--port N] [--port-file FILE] [--shards N] [--queue-cap N]
//              [--policy block|drop] [--no-step-verdicts] [--no-wait-file]
//              [--telemetry exact|sketch] [--sketch-width N]
//              [--sketch-depth N] [--sketch-k N]
//              [--verdicts FILE] [--metrics-out FILE] [--oneshot]
//
// Tails each --follow'd .vtrc file (which may still be written) into its own
// analyzer session on a sharded worker pool and emits verdicts as JSON lines
// — one per collective step as it closes, plus a final verdict with the full
// diagnosis once the stream's footer arrives. --port exposes /metrics
// (Prometheus), /healthz and /sessions over loopback HTTP (0 picks a free
// port; the bound port is logged to stderr and written to --port-file).
// /metrics includes the windowed gauge series (10s/60s rolling quantiles and
// rates — DESIGN.md §15) next to the lifetime counters; /debug/flight dumps
// the in-process flight recorder as JSON, and SIGQUIT dumps the same ring to
// stderr without shutting down.
//
// --shards is at most serve::kMaxThreads (256): each shard is a thread.
//
// --policy block (default) applies lossless backpressure to the tailer when
// a session queue fills; drop sheds newest records instead (accounted in
// serve.queue_dropped). --oneshot exits once every followed stream reached
// its footer (the load-feeding CI shape); without it the daemon runs until
// SIGTERM/SIGINT, which triggers the clean shutdown ordering: stop tailers,
// finalize sessions, drain the pool, stop HTTP.
//
// --telemetry sketch diagnoses every followed stream through the bounded
// sketch backend (each exact recorded report is compressed to the sketch
// memory budget before analysis). Final verdicts then report
// digest_match:false by design — the trace footer hashes the exact-lane
// diagnosis — so --oneshot only requires sessions to finish cleanly.
//
// Exit codes: 0 clean shutdown (oneshot: every session finished and its
// digest matched), 1 a session ended in error, 2 usage, 3 startup failure.
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/server.h"
#include "serve/tail_source.h"
#include "serve/verdict.h"
#include "telemetry_flags.h"

namespace {

using namespace vedr;

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }

// SIGQUIT = "tell me what you were doing" without dying: the main loop sees
// the flag and dumps the flight recorder to stderr (not from the handler —
// the dump takes locks and calls fprintf, neither async-signal-safe).
volatile std::sig_atomic_t g_dump_flight = 0;
void on_sigquit(int) { g_dump_flight = 1; }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --follow FILE[=TENANT] [--follow ...]\n"
               "          [--port N] [--port-file FILE] [--shards N] [--queue-cap N]\n"
               "          [--policy block|drop] [--no-step-verdicts] [--no-wait-file]\n"
               "%s"
               "          [--verdicts FILE] [--metrics-out FILE] [--oneshot]\n",
               argv0, tools::TelemetryCli::usage_line());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::pair<std::string, std::string>> follows;  // path, tenant
  int port = -1;  // -1: HTTP disabled
  std::string port_file;
  std::string verdicts_path;  // empty: stdout
  std::string metrics_out;
  serve::ServerConfig cfg;
  serve::TailConfig tail_cfg;
  bool oneshot = false;
  tools::TelemetryCli telemetry_opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--follow") {
      const std::string spec = next();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        follows.emplace_back(spec, "tenant" + std::to_string(follows.size()));
      } else {
        follows.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
      }
    } else if (arg == "--port") {
      port = common::parse_int_or_die("--port", next(), 0, 65535);
    } else if (arg == "--port-file") {
      port_file = next();
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
    } else if (arg == "--no-step-verdicts") {
      cfg.session.emit_step_verdicts = false;
    } else if (arg == "--no-wait-file") {
      tail_cfg.wait_for_file = false;
    } else if (arg == "--verdicts") {
      verdicts_path = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--oneshot") {
      oneshot = true;
    } else if (telemetry_opts.parse(arg, next, [&] { usage(argv[0]); })) {
      // handled
    } else {
      usage(argv[0]);
    }
  }
  if (follows.empty()) usage(argv[0]);
  cfg.session.telemetry = telemetry_opts.params();

  std::FILE* verdict_file = stdout;
  if (!verdicts_path.empty() && verdicts_path != "-") {
    verdict_file = std::fopen(verdicts_path.c_str(), "w");
    if (verdict_file == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for verdicts\n", verdicts_path.c_str());
      return 3;
    }
  }
  serve::FileVerdictSink sink(verdict_file);
  serve::Server server(cfg, &sink);

  serve::HttpListener http([&server](const std::string& path) {
    serve::HttpResponse r;
    if (path == "/healthz") {
      r.body = server.healthy() ? "ok\n" : "shutting down\n";
      if (!server.healthy()) r.status = 503;
    } else if (path == "/metrics") {
      r.content_type = "text/plain; version=0.0.4; charset=utf-8";
      r.body = server.prometheus();
    } else if (path == "/sessions") {
      r.content_type = "application/json";
      r.body = server.sessions_json();
    } else if (path == "/debug/flight") {
      r.content_type = "application/json";
      r.body = obs::flight_json();
    } else {
      r.status = 404;
      r.body = "not found (try /metrics, /healthz, /sessions, /debug/flight)\n";
    }
    return r;
  });
  if (port >= 0) {
    std::string err;
    if (!http.start(static_cast<std::uint16_t>(port), &err)) {
      std::fprintf(stderr, "error: http listener: %s\n", err.c_str());
      return 3;
    }
    std::fprintf(stderr, "vedr_serve: listening on 127.0.0.1:%d\n", http.port());
    if (!port_file.empty()) {
      std::FILE* pf = std::fopen(port_file.c_str(), "w");
      if (pf != nullptr) {
        std::fprintf(pf, "%d\n", http.port());
        std::fclose(pf);
      }
    }
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGQUIT, on_sigquit);

  std::vector<std::unique_ptr<serve::FileTailSource>> sources;
  sources.reserve(follows.size());
  for (const auto& [path, tenant] : follows) {
    sources.push_back(std::make_unique<serve::FileTailSource>(&server, path, tenant, tail_cfg));
    sources.back()->start();
  }
  std::fprintf(stderr, "vedr_serve: following %zu stream(s), %d shard(s), queue cap %zu (%s)\n",
               sources.size(), cfg.shards, cfg.session.queue_capacity,
               cfg.session.policy == serve::OverflowPolicy::kBlock ? "block" : "drop");

  while (g_signal == 0) {
    if (g_dump_flight != 0) {
      g_dump_flight = 0;
      obs::flight_dump_stderr("SIGQUIT");
    }
    if (oneshot) {
      bool all_done = server.all_finished();
      for (const auto& s : sources)
        if (!s->done()) all_done = false;
      if (all_done) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (g_signal != 0) std::fprintf(stderr, "vedr_serve: signal received, shutting down\n");

  // Shutdown ordering (DESIGN.md §12): transports first (each closes its
  // session), then let every session finalize and emit its final verdict,
  // then drain and stop the pool, then the HTTP surface.
  for (auto& s : sources) s->stop();
  server.wait_all_finished();

  int exit_code = 0;
  if (oneshot && g_signal == 0) {
    for (const auto& s : sources) {
      const serve::Session* sess = server.find_session(s->session_id());
      // Sketch-lane sessions never match the footer digest (it hashes the
      // exact-lane diagnosis), so oneshot only requires a clean finish there.
      if (sess == nullptr || sess->state() != serve::SessionState::kFinished ||
          (!telemetry_opts.sketch() && !sess->digest_matched()))
        exit_code = 1;
    }
  }

  if (!metrics_out.empty() &&
      !obs::write_text_file(metrics_out, server.prometheus()))
    exit_code = exit_code == 0 ? 3 : exit_code;

  server.shutdown();
  http.stop();
  if (verdict_file != stdout) std::fclose(verdict_file);
  return exit_code;
}
