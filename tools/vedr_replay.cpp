// vedr_replay — offline re-diagnosis of a recorded .vtrc trace.
//
//   vedr_replay TRACE.vtrc [--json] [--dot PREFIX] [--verify-digest]
//               [--telemetry exact|sketch] [--sketch-width N]
//               [--sketch-depth N] [--sketch-k N]
//               [--obs-trace FILE.json] [--obs-metrics FILE]
//
// Streams the trace through a fresh Analyzer (replay::StreamingCollector) and
// prints a text summary by default. --json emits the replayed diagnosis as
// JSON; --dot writes the replayed waiting graph and global provenance graph
// as PREFIX_waiting.dot / PREFIX_provenance.dot; --verify-digest compares the
// replayed diagnosis digest against the footer digest recorded by the live
// run and fails on mismatch, reporting which record kind and byte range of
// the stream diverged from the footer's expectations. --obs-trace spans the
// replayed diagnose phases (Perfetto JSON); --obs-metrics snapshots the
// replay-side registry (frame/byte counters, diagnose latency).
//
// --telemetry sketch re-diagnoses the trace as if the switches had only the
// bounded sketch backend's memory: every recorded (exact) switch report is
// compressed through the count-min/top-k budget before the analyzer sees it.
// Incompatible with --verify-digest — the footer hashes the exact-lane
// diagnosis, so a sketch-lane digest match would be a bug, not a success.
//
// Exit codes: 0 success (and digest verified, when requested), 1 digest
// mismatch, 2 usage error, 3 unreadable/corrupt trace.
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/env.h"
#include "core/json_export.h"
#include "obs/cli.h"
#include "obs/json.h"
#include "replay/collector.h"
#include "replay/trace_reader.h"
#include "telemetry_flags.h"

namespace {

using namespace vedr;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s TRACE.vtrc [--json] [--dot PREFIX] [--verify-digest]\n"
               "%s"
               "          [--obs-trace FILE.json] [--obs-metrics FILE]\n",
               argv0, tools::TelemetryCli::usage_line());
  std::exit(2);
}

const char* system_name(replay::RecordedSystem s) {
  switch (s) {
    case replay::RecordedSystem::kVedrfolnir: return "vedrfolnir";
    case replay::RecordedSystem::kHawkeyeMaxR: return "hawkeye-max";
    case replay::RecordedSystem::kHawkeyeMinR: return "hawkeye-min";
    case replay::RecordedSystem::kFullPolling: return "full";
  }
  return "?";
}

const char* scenario_name(replay::RecordedScenario s) {
  switch (s) {
    case replay::RecordedScenario::kFlowContention: return "contention";
    case replay::RecordedScenario::kIncast: return "incast";
    case replay::RecordedScenario::kPfcStorm: return "storm";
    case replay::RecordedScenario::kPfcBackpressure: return "backpressure";
  }
  return "?";
}

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << body;
  return static_cast<bool>(out);
}

// Names the suspect on a divergence: audits the replayed stream against the
// footer's per-record-type counts and reports the first kind that disagrees
// together with the byte range its frames span, then checks the diagnosis
// JSON length. A table where every row matches means the stream itself is
// intact and the replayed analyzer's output diverged instead.
void print_divergence_report(const replay::ReplayResult& r) {
  std::fprintf(stderr, "stream audit (replayed vs footer record counts):\n");
  std::fprintf(stderr, "  %-18s %9s %9s  %s\n", "record kind", "replayed", "footer",
               "frame byte offsets");
  const char* first_divergent = nullptr;
  std::uint64_t divergent_first = 0;
  std::uint64_t divergent_last = 0;
  for (std::size_t t = 0; t < replay::kNumRecordSlots; ++t) {
    const auto kind = static_cast<replay::RecordType>(t);
    // The footer frame cannot count itself; the live writer stamps the counts
    // of everything written before it.
    const std::uint64_t expect = t == static_cast<std::size_t>(replay::RecordType::kFooter)
                                     ? r.footer.record_counts[t] + 1
                                     : r.footer.record_counts[t];
    const std::uint64_t got = r.stats.by_type[t];
    if (got == 0 && expect == 0) continue;
    const bool diverged = got != expect;
    if (got > 0) {
      std::fprintf(stderr, "  %-18s %9" PRIu64 " %9" PRIu64 "  first@%" PRIu64 " last@%" PRIu64 "%s\n",
                   replay::to_string(kind), got, expect, r.stats.first_offset[t],
                   r.stats.last_offset[t], diverged ? "  <-- diverged" : "");
    } else {
      std::fprintf(stderr, "  %-18s %9" PRIu64 " %9" PRIu64 "  (no frames survived)%s\n",
                   replay::to_string(kind), got, expect, diverged ? "  <-- diverged" : "");
    }
    if (diverged && first_divergent == nullptr) {
      first_divergent = replay::to_string(kind);
      divergent_first = r.stats.first_offset[t];
      divergent_last = r.stats.last_offset[t];
    }
  }
  if (first_divergent != nullptr) {
    std::fprintf(stderr,
                 "first divergent record kind: %s (its frames span bytes %" PRIu64 "..%" PRIu64
                 " of the stream)\n",
                 first_divergent, divergent_first, divergent_last);
  }
  if (r.diagnosis_json.size() != r.footer.diagnosis_json_bytes) {
    std::fprintf(stderr,
                 "diagnosis JSON: replayed %zu bytes vs %" PRIu64
                 " recorded live — the analyzer outputs differ\n",
                 r.diagnosis_json.size(), r.footer.diagnosis_json_bytes);
  } else if (first_divergent == nullptr) {
    std::fprintf(stderr,
                 "every frame accounted for and JSON lengths agree: the replayed diagnosis "
                 "content itself diverged (analyzer drift between recorder and replayer?)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string dot_prefix;
  bool as_json = false;
  bool verify_digest = false;
  obs::ObsCli obs_opts;
  tools::TelemetryCli telemetry_opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--json") {
      as_json = true;
    } else if (arg == "--dot") {
      dot_prefix = next();
    } else if (arg == "--verify-digest") {
      verify_digest = true;
    } else if (obs_opts.parse(arg, next)) {
      // handled
    } else if (telemetry_opts.parse(arg, next, [&] { usage(argv[0]); })) {
      // handled
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (trace_path.empty()) usage(argv[0]);
  if (telemetry_opts.sketch() && verify_digest) {
    std::fprintf(stderr,
                 "error: --verify-digest checks against the exact-lane footer digest and "
                 "cannot run with --telemetry sketch\n");
    return 2;
  }

  obs_opts.enable();
  replay::TraceReader reader(trace_path);
  replay::StreamingCollector collector;
  if (telemetry_opts.sketch()) collector.set_telemetry(telemetry_opts.params());
  const replay::ReplayResult result = collector.replay(reader);

  if (!result.ok) {
    std::fprintf(stderr, "error: %s: %s\n", trace_path.c_str(), result.error.str().c_str());
    // A stream that kept its footer can still be audited frame-kind by
    // frame-kind — tell the user which record type lost frames and where.
    if (result.have_footer) print_divergence_report(result);
    return 3;
  }

  if (as_json) {
    std::string line;
    obs::JsonWriter w(&line);
    w.begin_object();
    w.kv("trace", std::string_view(trace_path));
    w.kv("scenario", scenario_name(result.envelope.scenario));
    w.kv("case", static_cast<int>(result.envelope.case_id));
    w.kv("system", system_name(result.envelope.system));
    w.kv("frames", static_cast<std::uint64_t>(result.stats.frames));
    w.kv("bytes", static_cast<std::uint64_t>(result.stats.bytes));
    w.kv("cc_completed", result.footer.cc_completed);
    w.kv("cc_time_ns", static_cast<std::int64_t>(result.footer.cc_time));
    w.kv("diagnosis_digest", result.diagnosis_digest);
    w.kv("digest_matches", result.digest_matches);
    w.key("diagnosis");
    w.raw(result.diagnosis_json);
    w.end_object();
    std::printf("%s\n", line.c_str());
  } else {
    std::printf("trace: %s (%llu frames, %llu bytes)\n", trace_path.c_str(),
                static_cast<unsigned long long>(result.stats.frames),
                static_cast<unsigned long long>(result.stats.bytes));
    std::printf("case: %s/%d  system: %s  seed: %llu\n", scenario_name(result.envelope.scenario),
                static_cast<int>(result.envelope.case_id), system_name(result.envelope.system),
                static_cast<unsigned long long>(result.envelope.seed));
    std::printf("live outcome: %s  digest: %016llx  replayed digest: %016llx (%s)\n",
                result.footer.outcome == replay::RecordedOutcome::kTruePositive  ? "TP"
                : result.footer.outcome == replay::RecordedOutcome::kFalsePositive ? "FP"
                                                                                   : "FN",
                static_cast<unsigned long long>(result.footer.diagnosis_digest),
                static_cast<unsigned long long>(result.diagnosis_digest),
                result.digest_matches ? "match" : "MISMATCH");
    std::printf("\n%s", result.diagnosis.summary().c_str());
  }

  if (!dot_prefix.empty() && collector.analyzer() != nullptr) {
    const std::string waiting = collector.analyzer()->waiting_graph().to_dot();
    const std::string prov = collector.analyzer()->merged_graph().to_dot(collector.cc_flows());
    if (!write_file(dot_prefix + "_waiting.dot", waiting) ||
        !write_file(dot_prefix + "_provenance.dot", prov)) {
      std::fprintf(stderr, "error: cannot write DOT files at prefix %s\n", dot_prefix.c_str());
      return 3;
    }
    std::fprintf(stderr, "wrote %s_waiting.dot and %s_provenance.dot\n", dot_prefix.c_str(),
                 dot_prefix.c_str());
  }

  obs::MetricsSnapshot snap;
  if (obs_opts.want_metrics()) snap = obs::snapshot(collector.stats());
  if (!obs_opts.finish(&snap, {{"tool", "vedr_replay"}})) return 3;

  if (verify_digest && !result.digest_matches) {
    std::fprintf(stderr, "digest mismatch: footer %016llx, replayed %016llx\n",
                 static_cast<unsigned long long>(result.footer.diagnosis_digest),
                 static_cast<unsigned long long>(result.diagnosis_digest));
    print_divergence_report(result);
    return 1;
  }
  return 0;
}
