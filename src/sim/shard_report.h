#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace vedr::sim {

/// End-of-run introspection for a sharded run (DESIGN.md §15): where did the
/// wall-clock go, how balanced were the domains, and did the handoff lanes
/// overflow. `--shard-report` on vedr_diagnose / sim_throughput renders
/// table(); the engine fills the worker/domain/window sections
/// (ShardedEngine::fill_report) and the network fills the handoff lanes
/// (Network::fill_shard_report). Everything here is observation-only —
/// collecting it never perturbs the simulation's event order.
struct ShardReport {
  /// Windows the engine synchronized over the whole run.
  std::uint64_t windows = 0;
  /// Times the global min next-event time jumped past the previous window's
  /// end (every domain idle across the gap), and the total simulated ticks
  /// skipped that way. Large values mean the fabric is bursty relative to
  /// the lookahead — windows are cheap but mostly empty.
  std::uint64_t idle_gap_jumps = 0;
  std::uint64_t idle_gap_ticks = 0;
  /// Whether wall-clock timing was collected (set_collect_timing). The
  /// barrier-wait columns are zero when false.
  bool timing = false;

  /// Per-worker wall-clock decomposition. barrier_a_wait_ns is time parked
  /// waiting for stragglers before window selection, barrier_b_wait_ns time
  /// parked after executing its window, busy_ns time draining + executing.
  struct Worker {
    int id = 0;
    std::uint64_t barrier_a_wait_ns = 0;
    std::uint64_t barrier_b_wait_ns = 0;
    std::uint64_t busy_ns = 0;

    std::uint64_t wait_ns() const { return barrier_a_wait_ns + barrier_b_wait_ns; }
    /// Fraction of this worker's wall-clock spent parked at barriers — THE
    /// scaling diagnostic: a high ratio on some workers means domain
    /// imbalance (they finish early and wait), high on all means windows are
    /// too small for the per-window fixed cost.
    double barrier_wait_ratio() const {
      const std::uint64_t total = wait_ns() + busy_ns;
      return total == 0 ? 0.0 : static_cast<double>(wait_ns()) / static_cast<double>(total);
    }
  };
  std::vector<Worker> workers;

  /// Per-domain execution profile: total events and the distribution of
  /// events per window (log2 buckets). A domain whose histogram mass sits
  /// far above the others is the critical path.
  struct Domain {
    int id = 0;
    std::uint64_t events = 0;
    obs::Histogram events_per_window;
  };
  std::vector<Domain> domains;

  /// Per-(src,dst) handoff lane: handoffs pushed, ring overflow spills, and
  /// the ring-occupancy peak since start. Lanes with zero pushed are elided
  /// by the filler.
  struct Lane {
    int src = 0;
    int dst = 0;
    std::uint64_t pushed = 0;
    std::uint64_t spills = 0;
    std::size_t ring_peak = 0;
  };
  std::vector<Lane> lanes;

  std::uint64_t total_events() const {
    std::uint64_t n = 0;
    for (const auto& d : domains) n += d.events;
    return n;
  }
  std::uint64_t total_spills() const {
    std::uint64_t n = 0;
    for (const auto& l : lanes) n += l.spills;
    return n;
  }

  /// Human-readable report (the `--shard-report` table): windows and idle
  /// gaps, per-worker busy/wait split with barrier-wait ratio, per-domain
  /// events + per-window p50/p99, and the handoff lane table.
  std::string table() const;
};

}  // namespace vedr::sim
