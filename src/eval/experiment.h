#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/detection.h"
#include "core/diagnosis.h"
#include "eval/metrics.h"
#include "eval/scenario.h"
#include "net/types.h"
#include "sim/event.h"

namespace vedr::net {
class PacketTracer;
}

namespace vedr::core {
class TraceTap;
}

namespace vedr::obs {
struct MetricsSnapshot;
}

namespace vedr::sim {
struct ShardReport;
}

namespace vedr::eval {

enum class SystemKind : std::uint8_t {
  kVedrfolnir,
  kHawkeyeMaxR,
  kHawkeyeMinR,
  kFullPolling,
};

const char* to_string(SystemKind s);
/// The `--system` spelling: vedrfolnir, hawkeye-max, hawkeye-min, full.
const char* cli_name(SystemKind s);
/// The system whose cli_name is `name`, if any.
std::optional<SystemKind> parse_system(std::string_view name);

/// Everything a single evaluation run needs beyond the scenario itself.
struct RunConfig {
  net::NetConfig netcfg;
  core::DetectionConfig detection;  ///< Vedrfolnir knobs (swept in Figs. 12/13)
  /// Optional trace tap (normally a replay::TraceWriter) mirroring the
  /// diagnosis plane's full input stream to a .vtrc file. Observation only:
  /// a recorded run must produce the same determinism digest as an
  /// unrecorded one. Prefer record_case(), which also writes the
  /// envelope/footer frames. Works at any shard count: every system writes
  /// the stream when its domain buffers merge, in (time, domain, seq)
  /// order, so a sharded trace is the same bytes for every N >= 2.
  core::TraceTap* trace_writer = nullptr;
  /// Copies the case's complete StatsRegistry (counters and histograms)
  /// into CaseResult::metrics when the run finishes. Each case
  /// owns a fresh Network — and therefore a fresh registry — so per-case
  /// snapshots never bleed across the suite. Observation only.
  bool capture_metrics = false;
  /// Worker threads for the sharded engine (DESIGN.md §14). 1 (default)
  /// runs the serial lane: one domain, one window, the pinned serial
  /// digests. N > 1 runs the fabric's pod domains on the conservative
  /// parallel engine, for every system. Results, recorded traces
  /// included, are identical for any N >= 2 — the domain decomposition is
  /// fixed by the topology; N only picks how many threads execute it.
  int shards = 1;
  /// Radix of the fat-tree fabric run_case builds (the paper's K).
  int fat_tree_k = 4;
  /// Called once per domain on the main thread before the engine starts, to
  /// attach a per-domain packet tracer (observation only; the determinism
  /// digest streams the packet events through it). Return nullptr for no
  /// tracer on that domain.
  std::function<net::PacketTracer*(int domain, int num_domains)> domain_tracer_factory;
  /// Collect the end-of-run ShardReport (barrier-wait timing per worker,
  /// per-domain events/window, handoff lane stats) into
  /// CaseResult::shard_report. Enables the engine's wall-clock timing lane;
  /// observation only — digests are unaffected.
  bool capture_shard_report = false;
};

/// One case's complete result: verdict, overheads, and timing.
struct CaseResult {
  ScenarioType scenario{};
  SystemKind system{};
  int case_id = 0;

  CaseOutcome outcome;
  std::int64_t telemetry_bytes = 0;  ///< processing overhead (Fig. 10a)
  std::int64_t bandwidth_bytes = 0;  ///< polls + notifications + reports (Fig. 10b)
  std::int64_t poll_bytes = 0;
  std::int64_t notify_bytes = 0;
  std::int64_t report_count = 0;
  /// Peak switch-resident telemetry state (the `telemetry.state_bytes`
  /// gauge at end of run): the memory axis of the exact-vs-sketch frontier.
  /// Deliberately NOT folded into run_case_digest — the exact lane's digest
  /// predates this field and must stay byte-identical.
  std::int64_t telemetry_state_bytes = 0;
  sim::Tick cc_time = 0;
  bool cc_completed = false;
  std::uint64_t sim_events = 0;
  std::uint64_t packets_delivered = 0;  ///< frames handed to the link layer
  /// Engine counters summed over domains (sim::EventQueue): events that
  /// went to the overflow heap instead of the timing wheel, and events
  /// popped per kind (index_of(kind)). Not folded into run_case_digest.
  std::uint64_t heap_pushes = 0;
  std::array<std::uint64_t, sim::kNumEventKinds> pops_by_kind{};
  core::Diagnosis diagnosis;
  /// Set iff RunConfig::capture_metrics: the case's full metric snapshot
  /// (shared so CaseResult stays cheap to copy through the suite plumbing).
  std::shared_ptr<const obs::MetricsSnapshot> metrics;
  /// Set iff RunConfig::capture_shard_report.
  std::shared_ptr<const sim::ShardReport> shard_report;
};

/// Builds the paper's fabric, runs one case under one system, diagnoses,
/// and scores it. Fully self-contained (fresh engine per call) and
/// thread-safe to run concurrently. cfg.shards picks the domain plan (see
/// RunConfig::shards for the constraints).
CaseResult run_case(const ScenarioSpec& spec, SystemKind system, const RunConfig& cfg = {});

/// Runs one case with a replay::TraceWriter attached and writes the complete
/// .vtrc trace (envelope, streamed diagnosis-plane records, footer with the
/// live diagnosis digest) to `path`. The returned CaseResult is identical to
/// a plain run_case — recording observes, never perturbs. On I/O failure
/// returns normally but sets *error (when non-null) to a description.
CaseResult record_case(const ScenarioSpec& spec, SystemKind system, const RunConfig& cfg,
                       const std::string& path, std::string* error = nullptr);

/// Runs one case and folds the complete packet-event stream plus every
/// diagnosis-visible output (findings JSON, contributor scores, overhead
/// counters, timing) into a single 64-bit digest. Two same-seed invocations
/// must agree bit-for-bit; any divergence means hidden nondeterminism
/// (hash-order leakage, uninitialized reads, wall-clock use) in the
/// simulator or diagnosis core. Drives `tools/vedr_determinism` and the
/// determinism regression tests.
std::uint64_t run_case_digest(const ScenarioSpec& spec, SystemKind system, RunConfig cfg = {});

/// Convenience: generate case ids [0, n) for `type` and run them all,
/// optionally across `threads` worker threads (0 = hardware concurrency).
std::vector<CaseResult> run_scenario_suite(ScenarioType type, int n_cases, SystemKind system,
                                           const RunConfig& cfg = {},
                                           const ScenarioParams& params = {}, int threads = 0);

/// Aggregates precision/recall and mean overheads.
struct SuiteSummary {
  PrecisionRecall pr;
  double mean_telemetry_bytes = 0;
  double mean_bandwidth_bytes = 0;
  double mean_cc_time_us = 0;
  int cases = 0;

  static SuiteSummary from(const std::vector<CaseResult>& results);
};

}  // namespace vedr::eval
