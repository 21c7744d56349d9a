#include "serve/session.h"

#include <algorithm>

#include "core/json_export.h"
#include "obs/flight.h"
#include "obs/trace.h"  // wall_now_ns

namespace vedr::serve {
namespace {

/// Max records ingested per pump slice, so sessions sharing a shard take
/// turns; a slice may span several queue batches and a batch several slices.
constexpr int kPumpBatch = 256;

}  // namespace

const char* to_string(SessionState s) {
  switch (s) {
    case SessionState::kActive: return "active";
    case SessionState::kFinished: return "finished";
    case SessionState::kError: return "error";
  }
  return "?";
}

PumpResult Session::pump(VerdictSink& sink, sim::StatsRegistry& stats) {
  if (state() != SessionState::kActive) return PumpResult::kIdle;
  if (collector_ == nullptr) {
    collector_ = std::make_unique<replay::StreamingCollector>();
    if (cfg_.telemetry.backend == net::TelemetryBackend::kSketch)
      collector_->set_telemetry(cfg_.telemetry);
  }
  // Read before taking: every record offered before close_input() is then
  // in a batch taken below, so a closed input finalizes only a session that
  // has ingested all of it.
  const bool input_closed = input_closed_.load(std::memory_order_acquire);

  int n = 0;
  bool drained = false;
  while (n < kPumpBatch) {
    if (next_ == batch_.size()) {
      next_ = 0;
      // The used-up batch goes to a producer to destroy; the take below
      // then finds batch_ empty and destroys nothing on this thread.
      spent_.park(std::move(batch_));
      if (queue_.take(batch_) == 0) {
        drained = true;
        break;
      }
    }
    const IngestItem& item = batch_[next_++];
    collector_->ingest(item.rec, item.offset);
    bytes_seen_ = item.offset;  // frame-start offset of the newest frame
    ++n;
    if (item.rec.type == replay::RecordType::kStepRecord ||
        item.rec.type == replay::RecordType::kFooter)
      emit_step_verdicts(sink, stats);
  }
  if (n > 0) {
    frames_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    // Windowed ingest rates: one add per pump slice, never per record.
    if (live_ != nullptr) {
      const std::uint64_t now = obs::wall_now_ns();
      live_->records.add(static_cast<std::uint64_t>(n), now);
      live_->record_tenant_records(tenant_, static_cast<std::uint64_t>(n), now);
    }
  }

  // Finalize once the stream is complete (footer ingested, session drained)
  // or the transport gave up (error / shutdown) with nothing left to ingest.
  if (drained && (collector_->have_footer() || input_closed)) {
    finish(sink, stats);
    return PumpResult::kFinishedNow;
  }
  return drained ? PumpResult::kIdle : PumpResult::kMore;
}

void Session::emit_step_verdicts(VerdictSink& sink, sim::StatsRegistry& stats) {
  if (!collector_->have_envelope()) return;
  const int max_step = collector_->max_step_seen();
  // Steps are recorded in order, so step s is closed once a record for a
  // later step arrived; the footer closes the frontier entirely.
  const int closed = collector_->have_footer() ? max_step : max_step - 1;
  if (closed <= last_closed_step_) return;
  if (!cfg_.emit_step_verdicts) {
    last_closed_step_ = closed;
    steps_closed_.store(closed, std::memory_order_relaxed);
    return;
  }

  const std::uint64_t t0 = obs::wall_now_ns();
  const core::Diagnosis d = collector_->diagnose();
  const std::uint64_t t1 = obs::wall_now_ns();
  const auto latency_ns = static_cast<std::int64_t>(t1 - t0);
  stats.observe("serve.step_diagnose_ns", latency_ns);
  if (live_ != nullptr) live_->step_diagnose_ns.record(latency_ns, t1);
  if (tail_ != nullptr && tail_->consider(latency_ns, t1)) {
    // Tail retain: this diagnose sits at/above the rolling quantile. Keep
    // full detail — a flight event plus a backdated span pair covering the
    // actual diagnose interval (record_manual stamps t0/t1, not "now").
    stats.add_counter("serve.tail_retained");
    obs::flight_record("tail", "slow diagnose: session=%llu tenant=%s steps<=%d lat=%lldns",
                       static_cast<unsigned long long>(id_), tenant_.c_str(), closed,
                       static_cast<long long>(latency_ns));
    if (obs::trace_enabled()) {
      obs::TraceEvent b;
      b.wall_ns = t0;
      b.cat = "serve";
      b.name = "slow_step_diagnose";
      b.id = id_;
      b.arg = static_cast<std::uint64_t>(latency_ns);
      b.phase = 'b';
      obs::TraceEvent e = b;
      e.wall_ns = t1;
      e.phase = 'e';
      obs::record_manual(b);
      obs::record_manual(e);
    }
  }

  for (int s = last_closed_step_ + 1; s <= closed; ++s) {
    const bool have_cf = s >= 0 && s < static_cast<int>(d.critical_flow_per_step.size());
    std::string line;
    obs::JsonWriter w(&line);
    w.begin_object();
    w.kv("type", "step");
    w.kv("session", id_);
    w.kv("tenant", tenant_);
    w.kv("step", s);
    w.kv("critical_flow", have_cf ? d.critical_flow_per_step[static_cast<std::size_t>(s)] : -1);
    w.key("findings");
    w.begin_array();
    for (const auto& f : d.findings)
      if (f.step == s) core::json::write_finding(w, f);
    w.end_array();
    w.end_object();
    sink.on_verdict(line);
    verdicts_.fetch_add(1, std::memory_order_relaxed);
    stats.add_counter("serve.step_verdicts");
  }
  if (live_ != nullptr && closed > last_closed_step_)
    live_->verdicts.add(static_cast<std::uint64_t>(closed - last_closed_step_),
                        obs::wall_now_ns());
  last_closed_step_ = closed;
  steps_closed_.store(closed, std::memory_order_relaxed);
}

void Session::finish(VerdictSink& sink, sim::StatsRegistry& stats) {
  replay::TraceError end;  // kOk: the footer path can finish before close_input()
  std::uint64_t bytes = bytes_seen_;
  if (input_closed_.load(std::memory_order_acquire)) {
    end = transport_error_;
    bytes = std::max(bytes, final_bytes_hint_);
  }
  const replay::ReplayResult r = collector_->finalize(end, bytes);
  const std::string err = r.ok ? std::string() : r.error.str();

  std::string line;
  obs::JsonWriter w(&line);
  w.begin_object();
  w.kv("type", "final");
  w.kv("session", id_);
  w.kv("tenant", tenant_);
  w.kv("state", r.ok ? "finished" : "error");
  w.kv("ok", r.ok);
  w.kv("digest_match", r.digest_matches);
  w.kv("frames", r.stats.frames);
  w.kv("dropped", queue_.stats().dropped);
  w.kv("error", err);
  // diagnosis_json is the canonical deterministic export — splice it raw so
  // the daemon's final verdict is byte-comparable with batch vedr_replay.
  w.key("diagnosis");
  w.raw(r.diagnosis_json.empty() ? "null" : r.diagnosis_json);
  w.end_object();
  sink.on_verdict(line);
  verdicts_.fetch_add(1, std::memory_order_relaxed);

  stats.add_counter(r.ok ? "serve.sessions_finished" : "serve.sessions_error");
  // Fold the collector's sketch-lane accounting into the server registry
  // here, on the shard worker, where touching the collector is legal.
  if (collector_->sketch_lane())
    stats.add_counter("serve.sketched_reports",
                      collector_->stats().counter("replay.sketched_reports"));

  // Free what only ingest needed — the analyzer's graphs, records and intern
  // tables — before the state store, so a finished session holds only its
  // counters. The closed queue refuses a late offer(); the last take()
  // releases the batch into QueueStats::popped and moves out whatever a
  // producer offered after the footer. Records, both batches and their
  // storage go to the spent list, never to this thread's destructor.
  collector_.reset();
  queue_.close();
  spent_.park(std::move(batch_));
  next_ = 0;
  queue_.take(batch_);
  spent_.park(std::move(batch_));

  digest_matched_.store(r.digest_matches, std::memory_order_release);
  final_error_ = err;
  state_.store(static_cast<std::uint8_t>(r.ok ? SessionState::kFinished
                                              : SessionState::kError),
               std::memory_order_release);
  if (live_ != nullptr) live_->verdicts.add(1, obs::wall_now_ns());
  obs::flight_record("session", "close id=%llu tenant=%s state=%s digest_match=%d frames=%llu",
                     static_cast<unsigned long long>(id_), tenant_.c_str(),
                     r.ok ? "finished" : "error", r.digest_matches ? 1 : 0,
                     static_cast<unsigned long long>(r.stats.frames));
}

}  // namespace vedr::serve
