#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/trace.h"  // wall_now_ns

#ifndef VEDR_VERSION
#define VEDR_VERSION "dev"
#endif

namespace vedr::serve {

void SessionTable::append(std::unique_ptr<Session> s) {
  const std::uint64_t id = size_.load(std::memory_order_relaxed) + 1;
  VEDR_CHECK(s->id() == id, "sessions are appended in id order");
  const int k = segment_of(id);
  auto& segment = segments_[static_cast<std::size_t>(k)];
  if (segment == nullptr)
    segment = std::make_unique<std::unique_ptr<Session>[]>(std::size_t{1} << k);
  segment[id - (std::uint64_t{1} << k)] = std::move(s);
  size_.store(id, std::memory_order_release);  // publishes the slot and segment
}

Server::Server(const ServerConfig& cfg, VerdictSink* sink)
    : cfg_(cfg), sink_(sink), pool_(cfg.shards),
      start_wall_ns_(obs::wall_now_ns()) {
  // From here on a CHECK failure anywhere in the process dumps the flight
  // ring to stderr before aborting (idempotent if already installed).
  obs::flight_install_check_hooks();
  if (cfg_.roll_interval_ns > 0) roller_ = std::thread([this] { roller_loop(); });
}

Server::~Server() { shutdown(); }

std::uint64_t Server::open_session(const std::string& tenant) {
  common::MutexLock lock(mu_);
  const std::uint64_t id = sessions_.size() + 1;
  // Shard by id, not tenant hash: ids are dense, so sessions spread evenly.
  const std::size_t shard = static_cast<std::size_t>(id) %
                            static_cast<std::size_t>(pool_.shards());
  auto s = std::make_unique<Session>(id, tenant, shard, cfg_.session, spent_);
  s->set_live_metrics(&live_, &tail_);
  sessions_.append(std::move(s));
  ++open_count_;
  stats_.add_counter("serve.sessions_opened");
  obs::flight_record("session", "open id=%llu tenant=%s shard=%zu",
                     static_cast<unsigned long long>(id), tenant.c_str(), shard);
  return id;
}

bool Server::offer(std::uint64_t sid, replay::TraceRecord rec, std::uint64_t offset) {
  Session* s = find_session(sid);
  bool accepted = false;
  if (s != nullptr) {
    accepted = s->offer(std::move(rec), offset);
    schedule_pump(s);  // even a drop warrants a pump: the queue is full
  }
  spent_.release();  // while the worker ingests what was just queued
  return accepted;
}

void Server::close_session(std::uint64_t sid, const replay::TraceError& error,
                           std::uint64_t bytes) {
  if (Session* s = find_session(sid); s != nullptr) {
    s->close_input(error, bytes);
    schedule_pump(s);  // the finalizing pump
  }
  spent_.release();
}

void Server::schedule_pump(Session* s) {
  // One pending pump per session: armed here, cleared on task entry, so a
  // record offered mid-pump always produces a follow-up task.
  if (s->pump_pending().exchange(true, std::memory_order_acq_rel)) return;
  if (!pool_.post(s->shard(), [this, s] { pump_task(s); }))
    s->pump_pending().store(false, std::memory_order_release);  // pool stopped
}

void Server::pump_task(Session* s) {
  s->pump_pending().store(false, std::memory_order_release);
  const PumpResult r = s->pump(*sink_, stats_);
  if (r == PumpResult::kFinishedNow) {
    // The last session to finish destroys what no producer may come back
    // for: records of finished sessions only. It holds mu_ until they are
    // gone, so no session opens while a shard worker frees records.
    common::MutexLock lock(mu_);
    if (--open_count_ == 0) spent_.release();
    finished_cv_.notify_all();
  } else if (r == PumpResult::kMore) {
    schedule_pump(s);  // batch limit hit with records still queued
  }
}

bool Server::all_finished() const {
  common::MutexLock lock(mu_);
  return open_count_ == 0;
}

void Server::wait_all_finished() {
  common::MutexLock lock(mu_);
  while (open_count_ > 0) finished_cv_.wait(mu_);
}

void Server::shutdown() {
  {
    common::MutexLock lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    // Release producers blocked on full queues; queued items stay poppable,
    // so the drain below still ingests everything already accepted.
    for (std::uint64_t id = 1; id <= sessions_.size(); ++id) sessions_.find(id)->abort_queue();
  }
  // Stop the roller outside mu_ (a join never needs the lock).
  {
    common::MutexLock lock(roller_mu_);
    roller_stop_ = true;
    roller_cv_.notify_all();
  }
  if (roller_.joinable()) roller_.join();
  pool_.drain();
  pool_.stop();
  spent_.release();  // the workers are gone: nothing parks after this
}

void Server::roller_loop() {
  const auto interval = std::chrono::nanoseconds(cfg_.roll_interval_ns);
  for (;;) {
    {
      common::MutexLock lock(roller_mu_);
      if (roller_stop_) return;
      roller_cv_.wait_for(roller_mu_, interval);
      if (roller_stop_) return;
    }
    poll_windows();
  }
}

void Server::poll_windows() {
  const std::uint64_t now = obs::wall_now_ns();
  const std::uint64_t n = sessions_.size();
  for (std::uint64_t id = 1; id <= n; ++id) {
    Session* s = sessions_.find(id);
    // Drop deltas first (a session can drop and finish between two ticks).
    const std::uint64_t dropped = s->queue_stats().dropped;
    const std::uint64_t last = s->rolled_drops().load(std::memory_order_relaxed);
    if (dropped > last) {
      obs::flight_record("queue", "dropped %llu records: session=%llu tenant=%s total=%llu",
                         static_cast<unsigned long long>(dropped - last),
                         static_cast<unsigned long long>(id), s->tenant().c_str(),
                         static_cast<unsigned long long>(dropped));
      s->rolled_drops().store(dropped, std::memory_order_relaxed);
    }
    if (s->state() != SessionState::kActive) continue;  // finished queues are empty
    const std::size_t cap = s->config().queue_capacity;
    const std::size_t peak = s->take_queue_high_watermark();
    live_.queue_depth.record(static_cast<std::int64_t>(peak), now);
    live_.queue_depth_peak.record(static_cast<std::int64_t>(peak), now);
    if (cap > 0 && peak * 10 >= cap * 9)
      obs::flight_record("queue", "near capacity: session=%llu tenant=%s peak=%zu cap=%zu",
                         static_cast<unsigned long long>(id), s->tenant().c_str(), peak, cap);
  }
}

double Server::uptime_seconds() const {
  return static_cast<double>(obs::wall_now_ns() - start_wall_ns_) / 1e9;
}

bool Server::healthy() const {
  common::MutexLock lock(mu_);
  return !shutdown_;
}

obs::MetricsSnapshot Server::metrics_snapshot() const {
  obs::MetricsSnapshot snap = obs::snapshot(stats_);

  std::uint64_t pushed = 0, popped = 0, dropped = 0, blocked = 0;
  std::uint64_t depth = 0, high_watermark = 0, frames = 0, verdicts = 0;
  std::int64_t total = 0, active = 0, sketch_sessions = 0;
  {
    const std::uint64_t n = sessions_.size();
    for (std::uint64_t id = 1; id <= n; ++id) {
      const Session* s = sessions_.find(id);
      const common::QueueStats q = s->queue_stats();
      pushed += q.pushed;
      popped += q.popped;
      dropped += q.dropped;
      blocked += q.blocked;
      depth += q.size;
      high_watermark = std::max<std::uint64_t>(high_watermark, q.high_watermark);
      frames += s->frames_ingested();
      verdicts += s->verdicts_emitted();
      ++total;
      if (s->state() == SessionState::kActive) ++active;
      if (s->config().telemetry.backend == net::TelemetryBackend::kSketch) ++sketch_sessions;
    }
  }
  snap.counters["serve.sessions_total"] = total;
  snap.counters["serve.sessions_open"] = active;
  snap.counters["serve.queue_pushed"] = static_cast<std::int64_t>(pushed);
  snap.counters["serve.queue_popped"] = static_cast<std::int64_t>(popped);
  snap.counters["serve.queue_dropped"] = static_cast<std::int64_t>(dropped);
  snap.counters["serve.queue_blocked"] = static_cast<std::int64_t>(blocked);
  snap.counters["serve.queue_depth"] = static_cast<std::int64_t>(depth);
  snap.counters["serve.queue_high_watermark"] = static_cast<std::int64_t>(high_watermark);
  snap.counters["serve.queue_spent"] = static_cast<std::int64_t>(spent_.size());
  snap.counters["serve.frames_ingested"] = static_cast<std::int64_t>(frames);
  snap.counters["serve.verdicts_emitted"] = static_cast<std::int64_t>(verdicts);
  snap.counters["serve.telemetry_sketch_sessions"] = sketch_sessions;
  snap.counters["serve.tail_considered"] =
      static_cast<std::int64_t>(tail_.considered());

  const std::uint64_t now = obs::wall_now_ns();
  live_.append_gauges(snap, now);
  snap.gauges.push_back({"serve.tail.threshold_ns", {},
                         static_cast<double>(tail_.threshold_ns(now))});
  snap.gauges.push_back({"uptime_seconds", {}, uptime_seconds()});
  snap.gauges.push_back(
      {"build_info", {{"version", VEDR_VERSION}, {"compiler", __VERSION__}}, 1.0});
  return snap;
}

std::string Server::prometheus() const {
  return obs::to_prometheus(metrics_snapshot(), {{"service", "vedr_serve"}});
}

std::string Server::sessions_json() const {
  std::string out;
  obs::JsonWriter w(&out);
  w.begin_object();
  w.key("sessions");
  w.begin_array();
  const std::uint64_t n = sessions_.size();
  for (std::uint64_t id = 1; id <= n; ++id) {
    const Session* s = sessions_.find(id);
    const common::QueueStats q = s->queue_stats();
    const SessionState st = s->state();
    w.begin_object();
    w.kv("id", id);
    w.kv("tenant", s->tenant());
    w.kv("shard", s->shard());
    w.kv("state", to_string(st));
    w.kv("frames", s->frames_ingested());
    w.kv("steps_closed", s->steps_closed());
    w.kv("verdicts", s->verdicts_emitted());
    w.kv("digest_match", st != SessionState::kActive && s->digest_matched());
    w.kv("error", st == SessionState::kError ? s->final_error() : std::string());
    w.key("queue");
    w.begin_object();
    w.kv("size", q.size);
    w.kv("capacity", s->config().queue_capacity);
    w.kv("pushed", q.pushed);
    w.kv("popped", q.popped);
    w.kv("dropped", q.dropped);
    w.kv("blocked", q.blocked);
    w.kv("high_watermark", q.high_watermark);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out;
}

}  // namespace vedr::serve
