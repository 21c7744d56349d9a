#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace vedr::common {

/// Counters a queue owner exposes as obs metrics (serve surfaces them per
/// session as `serve.session.*`). Snapshot under the queue's lock, so the
/// numbers are mutually consistent: pushed == popped + size (a dropped item
/// was never pushed).
struct QueueStats {
  std::uint64_t pushed = 0;       ///< items accepted into the queue
  std::uint64_t popped = 0;       ///< items the consumer took and has since released
  std::uint64_t dropped = 0;      ///< try_push rejections (queue full)
  std::uint64_t blocked = 0;      ///< push() calls that had to wait for space
  std::size_t size = 0;           ///< items held: queued, or in the consumer's batch
  std::size_t high_watermark = 0; ///< max size ever observed
};

/// Bounded multi-producer / single-consumer queue with explicit backpressure
/// and a batch hand-off.
///
/// The serve ingest plane puts one of these in front of every tenant session:
/// transport threads produce decoded trace records, the session's shard
/// worker consumes them. Two producer disciplines are offered and the caller
/// picks per push:
///
///   * push(v)      lossless backpressure — blocks until space or close();
///                  the default for file tailing, where the producer can
///                  simply stop reading.
///   * try_push(v)  lossy — a full queue rejects the item and accounts a
///                  drop; for transports that must never stall (a live
///                  socket whose peer outruns the consumer).
///
/// Producers construct each item in place at the end of a vector under one
/// mutex (capability-checked). The consumer never takes the lock per item:
/// take() swaps out everything queued in one O(1) critical section and
/// hands the queue the vector it passes in. Until the consumer returns for
/// its next batch, the items of the current one still count against the
/// capacity: the bound is on everything the owner holds, so drop and block
/// behaviour under overload are those of a per-item queue. A producer is
/// woken only when one is blocked.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    VEDR_CHECK(capacity > 0, "BoundedQueue capacity must be positive");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Lossless producer: waits while full, then constructs the item from
  /// `args`. Returns false (nothing constructed, `args` untouched) only when
  /// the queue was closed.
  template <typename... Args>
  bool push(Args&&... args) VEDR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (held() >= capacity_ && !closed_) {
      ++stats_.blocked;
      ++blocked_producers_;
      // condition_variable_any unlocks/relocks mu_ itself (Mutex is
      // BasicLockable), so the guarded state below is always read held.
      while (held() >= capacity_ && !closed_) space_cv_.wait(mu_);
      --blocked_producers_;
    }
    if (closed_) return false;
    append(std::forward<Args>(args)...);
    return true;
  }

  /// Lossy producer: never blocks. A full queue rejects the item and counts
  /// it in QueueStats::dropped; a closed queue rejects without accounting a
  /// drop (the stream is over, nothing was lost to capacity). Nothing is
  /// constructed from `args` unless the item is accepted.
  template <typename... Args>
  bool try_push(Args&&... args) VEDR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (closed_) return false;
    if (held() >= capacity_) {
      ++stats_.dropped;
      return false;
    }
    append(std::forward<Args>(args)...);
    return true;
  }

  /// Consumer: releases the previous batch — all consumed — and refills
  /// `batch` with everything queued since, in push order. Whatever `batch`
  /// still holds is destroyed here, before the lock; a consumer that must
  /// not destroy items on its own thread (serve) moves the previous batch
  /// elsewhere first and passes an empty vector. Returns the number of
  /// items taken; 0 when nothing was queued (after close(), 0 means the
  /// stream is drained). Never blocks.
  std::size_t take(std::vector<T>& batch) VEDR_EXCLUDES(mu_) {
    batch.clear();
    MutexLock lock(mu_);
    stats_.popped += taken_;
    items_.swap(batch);
    taken_ = batch.size();
    if (blocked_producers_ > 0 && taken_ < capacity_) space_cv_.notify_all();
    return taken_;
  }

  /// Ends the stream: producers fail fast and blocked producers wake. Items
  /// already queued stay takeable (close-then-drain shutdown).
  void close() VEDR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    closed_ = true;
    space_cv_.notify_all();
  }

  /// Items held: queued, or in the batch the consumer took last.
  std::size_t size() const VEDR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return held();
  }

  QueueStats stats() const VEDR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    QueueStats s = stats_;
    s.size = held();
    return s;
  }

  /// Read-and-reset the high watermark: returns the peak size observed since
  /// the previous call, then re-seeds the watermark with the *current* size
  /// (not zero — the occupancy that exists right now was observed). Windowed
  /// gauges call this once per roll tick so each window reports its own peak
  /// instead of the lifetime one. Producers racing the reset are safe: their
  /// max-update runs under the same lock.
  std::size_t take_high_watermark() VEDR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const std::size_t peak = stats_.high_watermark;
    stats_.high_watermark = held();
    return peak;
  }

 private:
  std::size_t held() const VEDR_REQUIRES(mu_) { return items_.size() + taken_; }

  template <typename... Args>
  void append(Args&&... args) VEDR_REQUIRES(mu_) {
    items_.emplace_back(std::forward<Args>(args)...);
    ++stats_.pushed;
    if (held() > stats_.high_watermark) stats_.high_watermark = held();
  }

  const std::size_t capacity_;
  mutable Mutex mu_;
  /// Waits on the annotated Mutex directly (it satisfies BasicLockable); the
  /// _any variant keeps the capability type visible to -Wthread-safety.
  std::condition_variable_any space_cv_;
  std::vector<T> items_ VEDR_GUARDED_BY(mu_);
  std::size_t taken_ VEDR_GUARDED_BY(mu_) = 0;  ///< size of the consumer's batch
  int blocked_producers_ VEDR_GUARDED_BY(mu_) = 0;
  bool closed_ VEDR_GUARDED_BY(mu_) = false;
  QueueStats stats_ VEDR_GUARDED_BY(mu_);
};

}  // namespace vedr::common
