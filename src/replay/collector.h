#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>

#include "collective/plan.h"
#include "common/digest.h"
#include "core/analyzer.h"
#include "core/diagnosis.h"
#include "net/topology.h"
#include "replay/trace_reader.h"
#include "sim/stats.h"
#include "telemetry/compressor.h"

namespace vedr::replay {

/// How the diagnosis JSON folds into the 64-bit digest stored in the footer
/// and compared by --verify-digest. One definition shared by the recording
/// side (eval::record_case) and the replay side so they cannot drift.
inline std::uint64_t diagnosis_json_digest(std::string_view json) {
  return common::Digest().mix(json).value();
}

struct ReplayStats {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t by_type[kNumRecordSlots] = {};
  /// Byte offset of the first/last frame of each record type, for divergence
  /// reporting (--verify-digest names the suspect frame range on mismatch).
  /// Valid only where by_type[t] > 0.
  std::uint64_t first_offset[kNumRecordSlots] = {};
  std::uint64_t last_offset[kNumRecordSlots] = {};
};

struct ReplayResult {
  bool ok = false;      ///< stream complete (envelope..footer) and well-formed
  TraceError error;     ///< set when !ok
  TraceEnvelope envelope;
  bool have_footer = false;
  TraceFooter footer;
  core::Diagnosis diagnosis;    ///< produced by the replayed analyzer
  std::string diagnosis_json;   ///< canonical JSON export of `diagnosis`
  std::uint64_t diagnosis_digest = 0;
  /// Replayed diagnosis digest equals the live run's footer digest — the
  /// offline path reproduced the online diagnosis bit-for-bit.
  bool digest_matches = false;
  ReplayStats stats;
};

/// Feeds a fresh Analyzer incrementally from a TraceReader: the envelope
/// rebuilds the topology, collective plan, and analyzer; every subsequent
/// frame is dispatched as it is read (bounded memory — the reader holds one
/// frame at a time, the analyzer accumulates exactly what a live run's
/// analyzer would). Informational frames (poll triggers, notifications,
/// pause causes, TTL drops) are counted but not fed to the analyzer, which
/// never sees them live either.
///
/// A trace is outside input: its CRCs prove its bytes intact, not that its
/// records fit the fabric and plan its envelope names. Each record is
/// checked before the analyzer sees it: a switch report against the fabric
/// (every node and port id the analyzer dereferences, and the byte counts
/// its invariants assume non-negative); a step record and a poll
/// registration against the plan (flow and step indices, dependencies, no
/// self-wait, no send that ends before it starts). The first misfit latches
/// a kBadRecord error naming the record type and field; the analyzer is fed
/// nothing more, and finalize() reports the error. The live path never
/// comes through here, so it keeps trusting its simulator.
///
/// Two driving shapes share the same dispatch:
///   * replay(reader) — one-shot: pump to end of stream, diagnose, verify.
///   * ingest()/diagnose()/finalize() — streaming: the serve daemon feeds
///     records as a tail-followed or socket transport delivers them and
///     re-diagnoses mid-stream (diagnose() is re-callable; the analyzer
///     re-finalizes only graphs that changed). finalize() then produces the
///     same ReplayResult the one-shot path would have.
///
/// Threading: VEDR_SINGLE_THREADED like the Analyzer it owns — the daemon
/// confines each collector to its session's shard worker.
class VEDR_SINGLE_THREADED StreamingCollector {
 public:
  StreamingCollector();
  ~StreamingCollector();

  /// Pumps the reader to its end and diagnoses. Diagnosis is attempted even
  /// on a damaged stream (best effort over the frames that survived), but
  /// `ok` and `digest_matches` are only set for a complete, verified stream.
  ReplayResult replay(TraceReader& reader);

  // --- streaming interface ---------------------------------------------------

  /// Dispatches one decoded frame (read at `frame_offset`, for divergence
  /// reporting). The first frame must be the envelope — the reader enforces
  /// that structurally, so a record stream from TraceReader is always valid
  /// input here.
  void ingest(const TraceRecord& rec, std::uint64_t frame_offset);

  /// Switches the collector to the bounded sketch lane: every subsequent
  /// switch report is re-encoded through `params`' memory budget (see
  /// telemetry::ReportCompressor) before the analyzer sees it. Traces always
  /// record exact ground truth, so calling this models "what would the
  /// diagnosis have been if the switches had only sketch memory". Must be
  /// called before the first switch report is ingested; digest verification
  /// against the footer is intentionally expected to fail on this lane
  /// (the footer hashes the exact diagnosis).
  void set_telemetry(const net::TelemetryParams& params) {
    compressor_.emplace(params);
  }
  bool sketch_lane() const { return compressor_.has_value(); }

  bool have_envelope() const { return analyzer_ != nullptr; }
  const TraceEnvelope& envelope() const { return envelope_; }
  bool have_footer() const { return have_footer_; }
  const TraceFooter& footer() const { return footer_; }
  /// Highest StepRecord step ingested so far (-1: none). The serve session
  /// treats step s as closed once a record for a step > s arrives.
  int max_step_seen() const { return max_step_seen_; }

  /// Diagnoses everything ingested so far. Re-callable after further
  /// ingest() calls — the per-step verdict stream is a sequence of these.
  core::Diagnosis diagnose();

  /// Completes the stream: final diagnosis, digest verification against the
  /// footer, and the footer-count truncation cross-check. `error` is the
  /// reader's terminal state (kOk/kEof for a clean end), `bytes` the total
  /// bytes consumed.
  ReplayResult finalize(const TraceError& error, std::uint64_t bytes);

  /// Valid after replay(); exposes the replayed graphs for DOT/JSON export.
  core::Analyzer* analyzer() { return analyzer_.get(); }
  const std::unordered_set<net::FlowKey, net::FlowKeyHash>& cc_flows() const {
    return cc_flows_;
  }

  /// Replay-side metrics: frame/byte counters plus the replayed analyzer's
  /// diagnose-latency histogram (an offline run has no Network registry to
  /// borrow, so the collector owns one).
  sim::StatsRegistry& stats() { return stats_; }

 private:
  void build_from_envelope(const TraceEnvelope& env);

  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<collective::CollectivePlan> plan_;
  std::unique_ptr<core::Analyzer> analyzer_;
  std::unordered_set<net::FlowKey, net::FlowKeyHash> cc_flows_;
  sim::StatsRegistry stats_;
  /// Engaged iff set_telemetry() selected the sketch lane.
  std::optional<telemetry::ReportCompressor> compressor_;

  // Streaming state (mirrors what replay() used to keep on its stack).
  TraceError bad_record_;  ///< first record that does not fit the envelope (kOk: none)
  TraceEnvelope envelope_;
  bool have_footer_ = false;
  TraceFooter footer_;
  ReplayStats stats_in_;
  int max_step_seen_ = -1;
};

}  // namespace vedr::replay
