#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/worker_pool.h"
#include "obs/metrics.h"
#include "serve/session.h"
#include "serve/verdict.h"
#include "sim/stats.h"

namespace vedr::serve {

/// The most threads one command-line count may start: shard workers
/// (vedr_serve and serve_throughput --shards) or bench producers
/// (serve_throughput --tenants). Larger values exit 2 as a usage error.
inline constexpr int kMaxThreads = 256;

/// Sessions by id, append-only. Ids are dense from 1 and never reused, and
/// a session is never erased while the server lives, so readers index the
/// table with no lock. Segment k holds the 2^k sessions with ids 2^k to
/// 2^(k+1) - 1; append() fills the next slot, allocating its segment first
/// when needed, and then publishes the new size with a release store.
/// Appends must be serialized by the caller (the server's mu_).
class SessionTable {
 public:
  /// Sessions published so far; ids 1..size() are valid.
  std::uint64_t size() const { return size_.load(std::memory_order_acquire); }

  /// nullptr for id 0 or an id not yet published.
  Session* find(std::uint64_t id) const {
    return id == 0 || id > size() ? nullptr : slot(id).get();
  }

  /// Adds `s`, whose id must be size() + 1.
  void append(std::unique_ptr<Session> s);

 private:
  /// `id | 1` has the width of any id >= 1, and keeps the index provably in
  /// range for id 0, which no caller passes.
  static int segment_of(std::uint64_t id) { return static_cast<int>(std::bit_width(id | 1)) - 1; }
  const std::unique_ptr<Session>& slot(std::uint64_t id) const {
    const int k = segment_of(id);
    return segments_[static_cast<std::size_t>(k)][id - (std::uint64_t{1} << k)];
  }

  std::array<std::unique_ptr<std::unique_ptr<Session>[]>, 64> segments_;
  std::atomic<std::uint64_t> size_{0};
};

struct ServerConfig {
  int shards = 2;          ///< shard workers (sessions hash onto these)
  SessionConfig session;   ///< per-session queue bound / overflow policy
  /// Window roller cadence: every tick samples per-session queue peaks into
  /// the windowed gauges and folds drop deltas into the flight recorder.
  /// 0 disables the roller thread (tests drive poll_windows() by hand).
  std::uint64_t roll_interval_ns = LiveMetrics::kIntervalNs;
};

/// The serve daemon's core: many tenant sessions multiplexed onto a sharded
/// worker pool. Transports (file tailers, tests, the bench) open a session,
/// offer() decoded records, and close it; the owning shard worker pumps the
/// session's analyzer and emits verdict lines to the shared sink. Everything
/// observable (/metrics, /sessions, /healthz bodies) reads only atomics,
/// queue snapshots, and the keyed StatsRegistry — all safe while ingestion
/// is running at full tilt.
///
/// Ownership: while any session is open, a record offered here is destroyed
/// on a producer thread (not necessarily the one that offered it). The
/// shard workers park the batches they used up in the server's
/// SpentRecords, and every offer() and close_session() destroys what is
/// parked. What is left is destroyed by the worker that finishes the last
/// open session, holding mu_ so that no session opens meanwhile, and by
/// shutdown(). Neither call takes the server-wide mutex: sessions are found
/// in the append-only SessionTable.
///
/// Scheduling: each session has a single pending-pump slot (an atomic flag).
/// offer()/close_session() arm it; the shard worker clears it on task entry,
/// so a record arriving mid-pump always gets a follow-up pump. Per-shard
/// FIFO means pumps for one session never overlap — the analyzer underneath
/// stays single-threaded without ever taking a lock on the hot path.
///
/// Shutdown ordering (shutdown(), also run by the destructor): abort every
/// session queue (releasing producers blocked on backpressure), drain the
/// pool so in-flight pumps settle, then stop the workers. Transports should
/// be stopped by the caller first; late offer()s fail harmlessly against
/// the closed queues.
class Server {
 public:
  /// `sink` receives every verdict line from every shard (it must be
  /// shard-concurrent-safe, e.g. FileVerdictSink) and must outlive shutdown.
  Server(const ServerConfig& cfg, VerdictSink* sink);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const ServerConfig& config() const { return cfg_; }

  // --- transport side --------------------------------------------------------

  /// Registers a tenant stream; returns its session id (never reused).
  std::uint64_t open_session(const std::string& tenant);

  /// Enqueues one record for `sid` and schedules its shard pump, then
  /// destroys the records the workers have parked. Blocking or lossy per the
  /// configured OverflowPolicy (see Session::offer). False for an unknown
  /// sid, a dropped record, or an aborted queue.
  bool offer(std::uint64_t sid, replay::TraceRecord rec, std::uint64_t offset);

  /// The transport finished (footer reached, stream error, or stop); the
  /// session finalizes after draining what is queued. Destroys the parked
  /// records, like offer().
  void close_session(std::uint64_t sid, const replay::TraceError& error,
                     std::uint64_t bytes);

  /// Lock-free. Sessions are never erased while the server lives, so the
  /// pointer stays valid until destruction. nullptr for an unknown id.
  Session* find_session(std::uint64_t sid) const { return sessions_.find(sid); }

  // --- lifecycle -------------------------------------------------------------

  bool all_finished() const VEDR_EXCLUDES(mu_);
  /// Blocks until every opened session reached kFinished/kError. Only
  /// returns if every transport eventually closes its session.
  void wait_all_finished() VEDR_EXCLUDES(mu_);
  /// Releases blocked producers, settles in-flight pumps, stops the workers.
  /// Idempotent; the destructor calls it.
  void shutdown() VEDR_EXCLUDES(mu_);

  // --- observability ---------------------------------------------------------

  sim::StatsRegistry& stats() { return stats_; }
  bool healthy() const VEDR_EXCLUDES(mu_);
  /// Keyed registry snapshot plus live aggregates over every session's queue
  /// (depth, drops, blocks, high watermark), the records parked for a
  /// producer to destroy (serve.queue_spent), and state counts, plus the
  /// windowed gauges (10s/60s quantiles/rates), uptime, and build info.
  obs::MetricsSnapshot metrics_snapshot() const;
  std::string prometheus() const;
  /// /sessions body: one JSON object per session with ingest/queue counters.
  std::string sessions_json() const;

  /// The windowed surface (shared with every session) and the tail sampler.
  LiveMetrics& live_metrics() { return live_; }
  const TailSampler& tail_sampler() const { return tail_; }

  /// One window-roller tick: samples every session queue's read-and-reset
  /// high watermark into the windowed depth gauges, and emits flight events
  /// for fresh drops / near-capacity peaks. The roller thread calls this
  /// every roll_interval_ns; tests call it directly (roll_interval_ns = 0),
  /// never both at once.
  void poll_windows();

  /// Seconds since construction (the vedr_uptime_seconds gauge).
  double uptime_seconds() const;

 private:
  void schedule_pump(Session* s);
  void pump_task(Session* s);
  void roller_loop();

  const ServerConfig cfg_;
  VerdictSink* const sink_;
  /// Keyed-only writes from the shard workers (observe/add_counter by name),
  /// so snapshotting concurrently is lossless and race-free.
  sim::StatsRegistry stats_;
  common::WorkerPool pool_;

  LiveMetrics live_;
  TailSampler tail_;
  const std::uint64_t start_wall_ns_;

  /// Declared before the sessions, whose ingest paths park into it.
  SpentRecords spent_;

  mutable common::Mutex mu_;
  std::condition_variable_any finished_cv_;
  /// Read without a lock; appended under mu_ (open_session).
  SessionTable sessions_;
  std::size_t open_count_ VEDR_GUARDED_BY(mu_) = 0;  ///< sessions still kActive
  bool shutdown_ VEDR_GUARDED_BY(mu_) = false;

  // Window roller (runs only when cfg.roll_interval_ns > 0).
  common::Mutex roller_mu_;
  std::condition_variable_any roller_cv_;
  bool roller_stop_ VEDR_GUARDED_BY(roller_mu_) = false;
  std::thread roller_;
};

}  // namespace vedr::serve
