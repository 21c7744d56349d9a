#pragma once

#include <barrier>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/shard.h"
#include "sim/shard_report.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace vedr::sim {

/// Conservative parallel discrete-event engine: D logical domains, each with
/// its own Simulator (clock + EventQueue), executed by W worker threads in
/// lockstep time windows of length `lookahead` (DESIGN.md §14).
///
/// Correctness rests on one inequality. Every cross-domain interaction is a
/// handoff whose delivery time is at least `lookahead` after its send time
/// (in the network model: the minimum inter-domain link propagation delay).
/// A window runs each domain from the global minimum next-event time T up to
/// but excluding T + lookahead, so any handoff produced inside the window
/// lands at or after the window's end — never inside a window another domain
/// is still executing. Handoffs are exchanged only at window boundaries,
/// which is where determinism comes from: the consumer merges them in
/// (delivery time, source domain, per-pair sequence) order, independent of
/// which worker ran first.
///
/// Domains, not workers, are the unit of determinism: domain d runs on
/// worker d % W, every domain's event order is fixed by its own queue, and
/// boundary merges are sorted — so results are identical for ANY worker
/// count W >= 1 given the same domain decomposition. `--shards N` picks W;
/// the decomposition itself is fixed by the topology (net::ShardPlan).
///
/// The serial lane is the one-domain engine (the default constructor): one
/// worker and unbounded lookahead, so run() executes a single window that is
/// exactly Simulator::run(until) on domain 0 — same (time, seq) order, no
/// barrier ever waits.
///
/// Synchronization shape per window (two std::barrier phases):
///   [each worker: drain hook per owned domain]     — merge inbound handoffs
///   barrier A (completion: pick next window / stop) — queues are quiesced
///   [each worker: run window per owned domain]      — execute, push handoffs
///   barrier B                                       — pushes before drain
/// The barriers are blocking (futex parking, not spinning), so oversubscribed
/// machines — including 1-core CI runners — degrade gracefully.
class ShardedEngine {
 public:
  /// `lookahead` must be positive (kForever: unbounded); `num_workers` is
  /// clamped to [1, num_domains].
  ShardedEngine(int num_domains, Tick lookahead, int num_workers);
  /// The one-domain engine: the serial lane.
  ShardedEngine() : ShardedEngine(1, kForever, 1) {}

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  Simulator& domain(int d) { return *sims_.at(static_cast<std::size_t>(d)); }
  int num_domains() const { return static_cast<int>(sims_.size()); }
  int num_workers() const { return num_workers_; }
  Tick lookahead() const { return lookahead_; }

  /// Called once per domain at the top of every window, on the domain's
  /// worker thread with ShardScope(domain) active, after barrier B of the
  /// previous window — i.e. with every handoff pushed in the previous window
  /// visible. The network layer drains its inbound handoff rings here.
  void set_drain_hook(std::function<void(int domain)> fn) { drain_hook_ = std::move(fn); }

  /// Runs every domain until all queues drain (handoffs included) or the
  /// next global event would be later than `until` (inclusive bound on event
  /// time, matching Simulator::run). Blocks the calling thread, which serves
  /// as worker 0. Returns total events executed across domains this call.
  std::uint64_t run(Tick until = kForever);

  /// Events executed across all domains since construction. Call only while
  /// no run() is in flight.
  std::uint64_t events_executed() const;

  /// Windows synchronized so far (introspection for tests/bench).
  std::uint64_t windows() const { return windows_; }

  /// Collect wall-clock barrier/busy timing per worker during run(). Off by
  /// default: the engine then reads no clock at all, keeping the default
  /// overhead at zero. The counter-only introspection (events per window,
  /// idle gaps) is always on — it reads nothing but state the engine already
  /// has. Neither mode feeds back into event order: digests are identical
  /// with timing on or off.
  void set_collect_timing(bool on) { collect_timing_ = on; }

  /// Fills the engine-owned sections of a ShardReport (windows, idle gaps,
  /// per-worker barrier timing, per-domain events). Call only while no run()
  /// is in flight; lanes are the network layer's business.
  void fill_report(ShardReport& out) const;

 private:
  void worker_loop(int w);
  void on_sync();  ///< barrier A completion: window selection / termination

  std::vector<std::unique_ptr<Simulator>> sims_;
  Tick lookahead_;
  int num_workers_;
  std::function<void(int)> drain_hook_;

  /// Introspection accumulators, each written only by its owning worker
  /// during run() and read quiesced afterwards; padded so adjacent workers'
  /// counters never false-share.
  struct alignas(64) WorkerStats {
    std::uint64_t barrier_a_wait_ns = 0;
    std::uint64_t barrier_b_wait_ns = 0;
    std::uint64_t busy_ns = 0;
  };
  struct alignas(64) DomainStats {
    std::uint64_t events = 0;
    obs::Histogram events_per_window;
  };
  std::vector<WorkerStats> worker_stats_;
  std::vector<DomainStats> domain_stats_;
  bool collect_timing_ = false;

  // Window state. Written only inside barrier A's completion function, which
  // the barrier runs exactly once per phase while every worker is parked and
  // sequences before any of them resume — so plain members are race-free
  // (the barrier's own synchronization carries the happens-before edges).
  Tick until_ = 0;
  Tick window_start_ = 0;
  Tick window_last_ = 0;  ///< inclusive: the window is [start, last]
  bool done_ = false;
  std::uint64_t windows_ = 0;
  std::uint64_t idle_gap_jumps_ = 0;
  std::uint64_t idle_gap_ticks_ = 0;

  std::barrier<std::function<void()>> sync_barrier_;
  std::barrier<> handoff_barrier_;  ///< barrier B
};

}  // namespace vedr::sim
