#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/mutex.h"
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
  bool emit_step_verdicts = true;     ///< per-step lines, not just the final one
  /// Telemetry lane for this tenant's collector. kExact feeds recorded
  /// reports verbatim; kSketch re-encodes each through the bounded memory
  /// budget (telemetry::ReportCompressor) before diagnosis. On the sketch
  /// lane the footer digest check is expected to report digest_match:false —
  /// the footer hashes the exact-lane diagnosis.
  net::TelemetryParams telemetry;
};

/// One offered record in a session's queue: the record and the byte offset
/// of its frame in the transport stream.
struct IngestItem {
  IngestItem(replay::TraceRecord&& r, std::uint64_t off) : rec(std::move(r)), offset(off) {}

  replay::TraceRecord rec;
  std::uint64_t offset = 0;
};

/// Records the shard workers are done with, waiting for a producer thread
/// to destroy them. A record is allocated on the producer thread that
/// decodes it; freed by the worker that ingested it, each of its blocks
/// would go back to the producer's malloc arena from another thread, and
/// the producer's per-thread cache would never see it again. So the worker
/// parks each used-up batch here, and the next producer call
/// (Server::offer, close_session) releases the whole list on its own
/// thread. With several producers, that may be another producer's thread:
/// the records still never cost a shard worker a free.
///
/// One per Server, shared by all its sessions, because a burst-fed tenant
/// offers its whole stream and never calls again: a per-queue list would
/// leave most of that stream to be freed by the worker. Only two callers
/// release the list off a producer thread: the worker that finishes the
/// last open session, holding the server's mutex so that no session can
/// open meanwhile, and shutdown().
class SpentRecords {
 public:
  using Batch = std::vector<IngestItem>;

  /// Shard worker: parks a used-up batch (records and storage) in O(1),
  /// leaving `batch` empty. An empty batch is not parked.
  void park(Batch&& batch) VEDR_EXCLUDES(mu_) {
    if (batch.empty()) return;
    const std::size_t n = batch.size();
    common::MutexLock lock(mu_);
    batches_.push_back(std::move(batch));
    records_.store(records_.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  /// Destroys everything parked, on the caller's thread: swaps the whole
  /// list out in O(1) under the lock (takes no lock when nothing is
  /// parked) and destroys it after unlocking.
  void release() VEDR_EXCLUDES(mu_) {
    if (records_.load(std::memory_order_relaxed) == 0) return;
    std::vector<Batch> spent;  // declared before the lock: destroyed after unlocking
    common::MutexLock lock(mu_);
    spent.swap(batches_);
    records_.store(0, std::memory_order_relaxed);
  }

  /// Records parked and not yet destroyed (serve.queue_spent).
  std::size_t size() const { return records_.load(std::memory_order_relaxed); }

 private:
  common::Mutex mu_;
  std::vector<Batch> batches_ VEDR_GUARDED_BY(mu_);
  /// Written under mu_, read without it by release()'s fast path and by
  /// metrics snapshots.
  std::atomic<std::size_t> records_{0};
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
/// records from the queue in batches, ingests them with no lock held, and
/// parks each used-up batch in `spent` for a producer to destroy. The
/// collector is built by the first pump, on the worker. A finished session
/// frees its collector and keeps only what the snapshot surface reads: the
/// atomics below (/sessions, /metrics) and the queue's counters.
class Session {
 public:
  /// Used-up batches are parked in `spent` (the server's), which must
  /// outlive the session.
  Session(std::uint64_t id, std::string tenant, std::size_t shard, const SessionConfig& cfg,
          SpentRecords& spent)
      : id_(id), tenant_(std::move(tenant)), shard_(shard), cfg_(cfg),
        queue_(cfg.queue_capacity), spent_(spent) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  std::uint64_t id() const { return id_; }
  const std::string& tenant() const { return tenant_; }
  std::size_t shard() const { return shard_; }
  const SessionConfig& config() const { return cfg_; }

  // --- producer side (any thread) -------------------------------------------

  /// Enqueues one decoded record (read at byte `offset` of the transport
  /// stream), constructing it in the queue. kBlock: waits for space, false
  /// only if the queue was aborted. kDropNewest: false means the record was
  /// dropped (accounted in queue_stats().dropped). A finished session
  /// refuses every offer. A refused record stays with the caller.
  bool offer(replay::TraceRecord&& rec, std::uint64_t offset) {
    return cfg_.policy == OverflowPolicy::kBlock ? queue_.push(std::move(rec), offset)
                                                 : queue_.try_push(std::move(rec), offset);
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

  /// The window roller's drop count at its previous tick, so it reports
  /// each drop once (only Server::poll_windows reads or writes it).
  std::atomic<std::uint64_t>& rolled_drops() { return rolled_drops_; }

 private:
  /// Re-diagnoses and emits one verdict line per newly closed step. A step s
  /// is closed once a record for a later step arrived (collective steps are
  /// emitted in order) or the footer ended the stream; pump() calls this
  /// right after ingesting such a record, so a step's line is the diagnosis
  /// over every record up to and including the one that closed it.
  void emit_step_verdicts(VerdictSink& sink, sim::StatsRegistry& stats);
  /// Final diagnosis + digest verification + final verdict line; frees the
  /// collector, parks what the queue still holds, then moves the session to
  /// kFinished/kError. Runs exactly once.
  void finish(VerdictSink& sink, sim::StatsRegistry& stats);

  const std::uint64_t id_;
  const std::string tenant_;
  const std::size_t shard_;
  const SessionConfig cfg_;

  common::BoundedQueue<IngestItem> queue_;
  SpentRecords& spent_;

  // Shard-confined (pump() only).
  /// Built by the first pump, null again once finished.
  std::unique_ptr<replay::StreamingCollector> collector_;
  SpentRecords::Batch batch_;      ///< the records of the last take()
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
  std::atomic<std::uint64_t> rolled_drops_{0};
};

}  // namespace vedr::serve
