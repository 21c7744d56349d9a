#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bounded_queue.h"
#include "common/thread_annotations.h"
#include "replay/collector.h"
#include "replay/trace_reader.h"
#include "serve/live_metrics.h"
#include "serve/verdict.h"
#include "sim/stats.h"

namespace vedr::serve {

/// What a full ingest queue does to the producer.
enum class OverflowPolicy : std::uint8_t {
  kBlock,      ///< lossless backpressure: offer() blocks until space
  kDropNewest, ///< lossy: offer() rejects and the queue accounts a drop
};

enum class SessionState : std::uint8_t {
  kActive = 0,  ///< ingesting (or waiting for the transport to deliver)
  kFinished,    ///< stream completed through its footer; final verdict emitted
  kError,       ///< transport or stream error; final best-effort verdict emitted
};

const char* to_string(SessionState s);

struct SessionConfig {
  /// Records buffered per tenant. Sized so one full burst of the largest
  /// expected trace fits even if the shard pump is starved for a scheduler
  /// quantum; drop-policy tenants shed load only past this bound.
  std::size_t queue_capacity = 4096;
  OverflowPolicy policy = OverflowPolicy::kBlock;
  /// Max records ingested per pump slice, so sessions sharing a shard take
  /// turns; a slice may span several queue batches and a batch several slices.
  int pump_batch = 256;
  bool emit_step_verdicts = true;     ///< per-step lines, not just the final one
  /// Telemetry lane for this tenant's collector. kExact feeds recorded
  /// reports verbatim; kSketch re-encodes each through the bounded memory
  /// budget (telemetry::ReportCompressor) before diagnosis. On the sketch
  /// lane the footer digest check is expected to report digest_match:false —
  /// the footer hashes the exact-lane diagnosis.
  net::TelemetryParams telemetry;
};

/// What one pump() call accomplished — the server's scheduler keys off this.
enum class PumpResult : std::uint8_t {
  kIdle,         ///< nothing to do (drained, stream still open)
  kMore,         ///< slice limit hit with records still to ingest — re-schedule
  kFinishedNow,  ///< this call completed the session (count it exactly once)
};

/// One tenant's streaming diagnosis session: a bounded ingest queue in front
/// of a StreamingCollector-backed analyzer. Producers (transport threads)
/// call offer()/close_input() from anywhere; pump() — ingestion, incremental
/// diagnosis, verdict emission — must only run on the session's shard worker
/// (the collector and analyzer underneath are VEDR_SINGLE_THREADED; the
/// server's per-shard FIFO provides the confinement). The worker takes
/// records from the queue in batches and ingests them with no lock held. A
/// finished session frees its collector and buffers and keeps only what
/// the snapshot surface reads: the atomics below (/sessions, /metrics) and
/// the queue's counters.
class Session {
 public:
  Session(std::uint64_t id, std::string tenant, std::size_t shard, const SessionConfig& cfg)
      : id_(id), tenant_(std::move(tenant)), shard_(shard), cfg_(cfg),
        queue_(cfg.queue_capacity),
        collector_(std::make_unique<replay::StreamingCollector>()) {
    if (cfg_.telemetry.backend == net::TelemetryBackend::kSketch)
      collector_->set_telemetry(cfg_.telemetry);
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  std::uint64_t id() const { return id_; }
  const std::string& tenant() const { return tenant_; }
  std::size_t shard() const { return shard_; }
  const SessionConfig& config() const { return cfg_; }

  // --- producer side (any thread) -------------------------------------------

  /// Enqueues one decoded record (read at byte `offset` of the transport
  /// stream). kBlock: waits for space, false only if the queue was aborted.
  /// kDropNewest: false means the record was dropped (accounted in
  /// queue_stats().dropped). A finished session refuses every offer.
  bool offer(replay::TraceRecord rec, std::uint64_t offset) {
    IngestItem item;
    item.rec = std::move(rec);
    item.offset = offset;
    return cfg_.policy == OverflowPolicy::kBlock ? queue_.push(std::move(item))
                                                 : queue_.try_push(std::move(item));
  }

  /// The transport is done (footer delivered, stream error, or shutdown).
  /// `transport_error` default-constructed (kOk) for a clean end; `final_bytes`
  /// the total bytes the transport consumed. The next pump() finalizes.
  void close_input(const replay::TraceError& transport_error, std::uint64_t final_bytes) {
    transport_error_ = transport_error;
    final_bytes_hint_ = final_bytes;
    input_closed_.store(true, std::memory_order_release);
  }

  /// Releases producers blocked on a full queue and rejects future offers;
  /// part of server shutdown, after which a final pump() can still finalize.
  void abort_queue() { queue_.close(); }

  // --- shard-worker side ------------------------------------------------------

  /// Ingests up to one slice of records, emits each step's verdict right
  /// after the record that closed the step, and finalizes (final verdict +
  /// digest check) once the footer arrived and the session drained (its
  /// batch is exhausted and the queue empty), or the transport closed the
  /// input. `stats` is the server-wide registry (keyed writes only — safe
  /// from all shards).
  PumpResult pump(VerdictSink& sink, sim::StatsRegistry& stats);

  // --- cross-thread snapshot surface -----------------------------------------

  SessionState state() const {
    return static_cast<SessionState>(state_.load(std::memory_order_acquire));
  }
  common::QueueStats queue_stats() const { return queue_.stats(); }
  /// Read-and-reset queue-depth peak since the previous call (the server's
  /// window roller samples this once per tick into the windowed gauges).
  std::size_t take_queue_high_watermark() { return queue_.take_high_watermark(); }
  std::uint64_t frames_ingested() const { return frames_.load(std::memory_order_relaxed); }
  /// Highest step already covered by an emitted verdict (-1: none yet).
  int steps_closed() const { return steps_closed_.load(std::memory_order_relaxed); }
  std::uint64_t verdicts_emitted() const { return verdicts_.load(std::memory_order_relaxed); }
  /// Valid once state() != kActive.
  bool digest_matched() const { return digest_matched_.load(std::memory_order_acquire); }
  /// Valid once state() == kError (written before the state store).
  const std::string& final_error() const { return final_error_; }

  /// Server scheduling slot: set when a pump task is queued for this session
  /// so at most one is ever pending (per-shard FIFO keeps pumps serial).
  std::atomic<bool>& pump_pending() { return pump_pending_; }

  /// Attaches the server's windowed-metric surface and tail sampler (both
  /// optional, both outliving the session). Called once, right after
  /// construction and before any pump — never mid-stream.
  void set_live_metrics(LiveMetrics* live, TailSampler* tail) {
    live_ = live;
    tail_ = tail;
  }

 private:
  struct IngestItem {
    replay::TraceRecord rec;
    std::uint64_t offset = 0;
  };

  /// Re-diagnoses and emits one verdict line per newly closed step. A step s
  /// is closed once a record for a later step arrived (collective steps are
  /// emitted in order) or the footer ended the stream; pump() calls this
  /// right after ingesting such a record, so a step's line is the diagnosis
  /// over every record up to and including the one that closed it.
  void emit_step_verdicts(VerdictSink& sink, sim::StatsRegistry& stats);
  /// Final diagnosis + digest verification + final verdict line; frees the
  /// collector, the batch and the queue's storage, then moves the session
  /// to kFinished/kError. Runs exactly once.
  void finish(VerdictSink& sink, sim::StatsRegistry& stats);

  const std::uint64_t id_;
  const std::string tenant_;
  const std::size_t shard_;
  const SessionConfig cfg_;

  common::BoundedQueue<IngestItem> queue_;

  // Shard-confined (pump() only).
  std::unique_ptr<replay::StreamingCollector> collector_;  ///< null once finished
  std::vector<IngestItem> batch_;  ///< the records of the last take()
  std::size_t next_ = 0;           ///< first record of batch_ not yet ingested
  int last_closed_step_ = -1;
  std::uint64_t bytes_seen_ = 0;
  LiveMetrics* live_ = nullptr;  ///< server-owned; written only via pump
  TailSampler* tail_ = nullptr;

  // Written by the transport before the input_closed_ release-store; read by
  // the shard worker after the acquire-load.
  replay::TraceError transport_error_;
  std::uint64_t final_bytes_hint_ = 0;
  std::atomic<bool> input_closed_{false};

  // Written by the shard worker before the state_ release-store; read by
  // observers after the acquire-load.
  std::string final_error_;
  std::atomic<bool> digest_matched_{false};

  std::atomic<std::uint8_t> state_{static_cast<std::uint8_t>(SessionState::kActive)};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<int> steps_closed_{-1};
  std::atomic<std::uint64_t> verdicts_{0};
  std::atomic<bool> pump_pending_{false};
};

}  // namespace vedr::serve
