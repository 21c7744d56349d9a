#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/histogram.h"

namespace vedr::sim {

/// Named counters and histograms shared by model components, used by
/// the evaluation harness to account overhead without plumbing every number
/// through constructors.
///
/// Threading contract (capability-checked under VEDR_THREAD_SAFETY):
///   - Every name-keyed operation (add_counter / observe / counter / hist /
///     snapshots / reset) locks `mu_`, so
///     concurrent keyed accumulation from suite worker threads is safe and
///     never loses updates.
///   - The interned cells returned by counter_cell()/hist_cell() are the
///     allocation-free hot path: the returned pointer is stable (node-based
///     maps never move values) but the *cell contents* are unsynchronized.
///     A cell is owned by the thread that interned it; sharing one cell
///     across threads is a contract violation (TSan will flag it). Because
///     cell writes are plain (non-atomic) stores, a keyed read or snapshot
///     of a cell-backed name concurrent with its owner is a data race, not
///     merely an inexact read — it is forbidden until the owning thread
///     quiesces (joins, or provably stops touching the cell).
class StatsRegistry {
 public:
  void add_counter(const std::string& name, std::int64_t delta = 1) VEDR_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    counters_[name] += delta;
  }

  /// Stable pointer to a counter's storage cell (the map is node-based, so
  /// later insertions never move it). Hot paths intern the cell once at
  /// construction and bump through the pointer — add_counter's string key
  /// would allocate on every event for names beyond the SSO limit. The cell
  /// is single-writer: owned by the interning thread (see class comment).
  std::int64_t* counter_cell(const std::string& name) VEDR_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return &counters_[name];
  }
  std::int64_t counter(const std::string& name) const VEDR_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Log2-bucketed distribution (RTTs, queue depths, latencies). Like the
  /// counters, hist cells live in a node-based map: hot paths intern the
  /// pointer once and add() through it without touching the string key.
  void observe(const std::string& name, std::int64_t v) VEDR_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    hists_[name].add(v);
  }
  obs::Histogram* hist_cell(const std::string& name) VEDR_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return &hists_[name];
  }
  obs::Histogram hist(const std::string& name) const VEDR_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    auto it = hists_.find(name);
    return it == hists_.end() ? obs::Histogram{} : it->second;
  }

  /// Consistent point-in-time copies (what obs::snapshot renders). Each map
  /// is copied under the lock. Safe concurrent with keyed writers; if any
  /// cell has been interned, copying races the owner's unlocked stores —
  /// quiesce cell owners before snapshotting (see class comment).
  std::map<std::string, std::int64_t> counters() const VEDR_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return counters_;
  }
  std::map<std::string, obs::Histogram> hists() const VEDR_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return hists_;
  }

  /// Folds every counter and histogram of `other` into this registry
  /// (counters add, histograms merge). Used to collapse per-domain
  /// registries into one after the engine's workers have joined; both
  /// registries must be quiescent (no live cell writers — see the
  /// interned-cell contract above).
  void merge_from(const StatsRegistry& other) VEDR_EXCLUDES(mu_) {
    const auto counters = other.counters();
    const auto hists = other.hists();
    common::MutexLock lock(mu_);
    for (const auto& [name, v] : counters) counters_[name] += v;
    for (const auto& [name, h] : hists) hists_[name].merge(h);
  }

  /// Invalidates every previously interned cell pointer; callers must
  /// re-intern (only used between runs, never while workers are live).
  void reset() VEDR_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    counters_.clear();
    hists_.clear();
  }

 private:
  mutable common::Mutex mu_;
  std::map<std::string, std::int64_t> counters_ VEDR_GUARDED_BY(mu_);
  std::map<std::string, obs::Histogram> hists_ VEDR_GUARDED_BY(mu_);
};

}  // namespace vedr::sim
