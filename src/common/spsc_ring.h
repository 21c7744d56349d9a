#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace vedr::common {

/// Bounded lock-free single-producer/single-consumer ring with a
/// mutex-guarded overflow spill — the cross-shard bridge primitive for the
/// sharded simulation engine (DESIGN.md §14).
///
/// Contract: exactly ONE thread calls push() and exactly ONE thread calls
/// drain_into() at any moment. The sharded engine enforces this structurally
/// (one ring per ordered (src, dst) shard pair; the producer is src's worker,
/// the consumer is dst's worker) and its window barriers additionally order
/// every producer write of window k before every consumer read in window
/// k+1, so consumers always observe complete batches.
///
/// The fast path is wait-free: a release store of `tail_` publishes the slot
/// write, an acquire load on the consumer side observes it (the classic
/// Lamport ring). When the ring is full the producer does NOT drop or spin —
/// it spills to `overflow_`, a mutex-guarded vector the consumer also drains.
/// Spills preserve per-producer FIFO relative to ring entries only up to the
/// consumer's merge; the sharded engine re-sorts drained handoffs by
/// (time, shard, seq) anyway, so spill reordering is invisible there. This is
/// Ring/bounded_queue's missing sibling: Ring is single-threaded,
/// bounded_queue is MPMC-blocking; this is the SPSC lock-free lane.
template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscRing(std::size_t capacity = 1024) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Never fails and never blocks on the consumer: a full
  /// ring spills to the overflow vector (brief mutex hold, uncontended
  /// unless the consumer is draining at the same instant).
  void push(T v) VEDR_EXCLUDES(overflow_mu_) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_cache_;
    if (tail - head >= buf_.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= buf_.size()) {
        spills_.fetch_add(1, std::memory_order_relaxed);
        MutexLock lock(overflow_mu_);
        overflow_.push_back(std::move(v));
        return;
      }
    }
    buf_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    note_occupancy(tail + 1 - head_cache_);
  }

  /// Consumer side: appends every available element (ring first, then the
  /// overflow spill) to `out`. Returns the number of elements drained.
  std::size_t drain_into(std::vector<T>& out) VEDR_EXCLUDES(overflow_mu_) {
    std::size_t n = 0;
    std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    while (head != tail) {
      out.push_back(std::move(buf_[head & mask_]));
      ++head;
      ++n;
    }
    head_.store(head, std::memory_order_release);
    {
      MutexLock lock(overflow_mu_);
      if (!overflow_.empty()) {
        n += overflow_.size();
        for (T& v : overflow_) out.push_back(std::move(v));
        overflow_.clear();
      }
    }
    return n;
  }

  /// Consumer-side emptiness probe (racy by nature; exact once the producer
  /// has quiesced, which is how the engine uses it).
  bool empty() VEDR_EXCLUDES(overflow_mu_) {
    if (head_.load(std::memory_order_acquire) != tail_.load(std::memory_order_acquire))
      return false;
    MutexLock lock(overflow_mu_);
    return overflow_.empty();
  }

  std::size_t capacity() const { return buf_.size(); }

  /// Times push() found the ring full and spilled to the overflow vector
  /// (cumulative; each spill is one element, not one epoch). A nonzero count
  /// means the ring is undersized for the traffic — the shard report surfaces
  /// this per handoff lane.
  std::uint64_t spills() const { return spills_.load(std::memory_order_relaxed); }

  /// Ring-occupancy high watermark: the peak `tail - head` observed at push
  /// (an *upper bound*, since the producer's view of head may be stale).
  /// Read it once the producer has quiesced (end-of-run reports).
  std::size_t watermark() const { return watermark_.load(std::memory_order_relaxed); }

 private:
  /// Producer-only writer, so a plain load-compare-store keeps the peak.
  void note_occupancy(std::size_t occ) {
    if (occ > watermark_.load(std::memory_order_relaxed))
      watermark_.store(occ, std::memory_order_relaxed);
  }

  std::vector<T> buf_;
  std::size_t mask_ = 0;
  /// Producer-owned cache of head_ so the fast path reads one shared atomic
  /// (tail_, which the producer owns) instead of two.
  std::size_t head_cache_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  ///< consumer position
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< producer position
  Mutex overflow_mu_;
  std::vector<T> overflow_ VEDR_GUARDED_BY(overflow_mu_);
  /// Introspection taps (never read by the transfer path itself).
  std::atomic<std::uint64_t> spills_{0};
  std::atomic<std::size_t> watermark_{0};
};

}  // namespace vedr::common
