#include "sim/sharded_engine.h"

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "obs/trace.h"

namespace vedr::sim {

ShardedEngine::ShardedEngine(int num_domains, Tick lookahead, int num_workers)
    : lookahead_(lookahead),
      num_workers_(std::clamp(num_workers, 1, std::max(num_domains, 1))),
      sync_barrier_(num_workers_, [this] { on_sync(); }),
      handoff_barrier_(num_workers_) {
  VEDR_CHECK(num_domains >= 1, "sharded engine needs at least one domain");
  VEDR_CHECK(lookahead > 0, "conservative lookahead must be positive");
  sims_.reserve(static_cast<std::size_t>(num_domains));
  for (int d = 0; d < num_domains; ++d) sims_.push_back(std::make_unique<Simulator>());
  worker_stats_.resize(static_cast<std::size_t>(num_workers_));
  domain_stats_.resize(static_cast<std::size_t>(num_domains));
}

void ShardedEngine::on_sync() {
  // Every worker is parked and every drain hook has run: all queues are
  // quiescent and complete (handoffs of the previous window included), so
  // the global minimum next-event time is exact.
  Tick min_next = kNever;  // kNever is -1, not a max sentinel: fold by hand
  for (const auto& s : sims_) {
    const Tick t = s->next_event_time();
    if (t == kNever) continue;
    if (min_next == kNever || t < min_next) min_next = t;
  }
  if (min_next == kNever || min_next > until_) {
    done_ = true;
    return;
  }
  // Idle-gap introspection: the fabric went globally quiet between the last
  // window's end and the next event — count the jump (observation only; the
  // window math below is unchanged).
  if (windows_ > 0 && min_next - window_last_ > 1) {
    ++idle_gap_jumps_;
    idle_gap_ticks_ += static_cast<std::uint64_t>(min_next - window_last_ - 1);
  }
  // The window is [min_next, min_next + lookahead), cut at until_ (a final
  // partial window). Saturating: the one-domain engine's lookahead is
  // kForever, so the plain sum would overflow; an end past kForever makes
  // the window unbounded.
  window_start_ = min_next;
  window_last_ = min_next >= kForever - lookahead_ ? kForever : min_next + lookahead_ - 1;
  if (window_last_ > until_) window_last_ = until_;
  ++windows_;
}

void ShardedEngine::worker_loop(int w) {
  const int domains = num_domains();
  const bool timing = collect_timing_;
  WorkerStats& ws = worker_stats_[static_cast<std::size_t>(w)];
  std::uint64_t t0 = timing ? obs::wall_now_ns() : 0;
  for (;;) {
    for (int d = w; d < domains; d += num_workers_) {
      ShardScope scope(d);
      if (drain_hook_) drain_hook_(d);
    }
    if (timing) {
      const std::uint64_t t1 = obs::wall_now_ns();
      ws.busy_ns += t1 - t0;
      t0 = t1;
    }
    sync_barrier_.arrive_and_wait();
    if (timing) {
      const std::uint64_t t1 = obs::wall_now_ns();
      ws.barrier_a_wait_ns += t1 - t0;
      t0 = t1;
    }
    if (done_) return;
    const Tick bound = window_last_;  // Simulator::run's bound is inclusive too
    const Tick win_start = window_start_;
    const std::uint64_t win_index = windows_;
    for (int d = w; d < domains; d += num_workers_) {
      ShardScope scope(d);
      Simulator& sim = *sims_[static_cast<std::size_t>(d)];
      const std::uint64_t before = sim.events_executed();
      sim.run(bound);
      // Per-domain introspection: pure observation of counters the engine
      // already owns, so it is always on and never perturbs event order.
      const std::uint64_t delta = sim.events_executed() - before;
      DomainStats& ds = domain_stats_[static_cast<std::size_t>(d)];
      ds.events += delta;
      ds.events_per_window.add(static_cast<std::int64_t>(delta));
      // One Perfetto track per domain: async span id = domain + 1 on the sim
      // timeline, arg = events executed in this window.
      if (obs::trace_enabled()) {
        const auto id = static_cast<std::uint64_t>(d) + 1;
        obs::async_begin("shard", "window", id, win_start, win_index);
        obs::async_end("shard", "window", id, bound, delta);
      }
    }
    if (timing) {
      const std::uint64_t t1 = obs::wall_now_ns();
      ws.busy_ns += t1 - t0;
      t0 = t1;
    }
    handoff_barrier_.arrive_and_wait();
    if (timing) {
      const std::uint64_t t1 = obs::wall_now_ns();
      ws.barrier_b_wait_ns += t1 - t0;
      t0 = t1;
    }
  }
}

std::uint64_t ShardedEngine::run(Tick until) {
  const std::uint64_t before = events_executed();
  until_ = until;
  done_ = false;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(num_workers_ - 1));
  for (int w = 1; w < num_workers_; ++w) workers.emplace_back([this, w] { worker_loop(w); });
  worker_loop(0);  // the calling thread is worker 0
  for (auto& t : workers) t.join();
  return events_executed() - before;
}

std::uint64_t ShardedEngine::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& s : sims_) n += s->events_executed();
  return n;
}

void ShardedEngine::fill_report(ShardReport& out) const {
  out.windows = windows_;
  out.idle_gap_jumps = idle_gap_jumps_;
  out.idle_gap_ticks = idle_gap_ticks_;
  out.timing = collect_timing_;
  out.workers.clear();
  for (int w = 0; w < num_workers_; ++w) {
    const WorkerStats& ws = worker_stats_[static_cast<std::size_t>(w)];
    out.workers.push_back({w, ws.barrier_a_wait_ns, ws.barrier_b_wait_ns, ws.busy_ns});
  }
  out.domains.clear();
  for (int d = 0; d < num_domains(); ++d) {
    const DomainStats& ds = domain_stats_[static_cast<std::size_t>(d)];
    ShardReport::Domain dom;
    dom.id = d;
    dom.events = ds.events;
    dom.events_per_window = ds.events_per_window;
    out.domains.push_back(std::move(dom));
  }
}

}  // namespace vedr::sim
