#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/spsc_ring.h"
#include "common/thread_annotations.h"
#include "net/packet.h"
#include "sim/shard.h"

namespace vedr::net {

/// Index of a pooled Packet slot. Refs travel through typed-event payloads
/// and switch queues so a frame occupies exactly one slot from host tx
/// through links and switch queues to final rx — no Packet copies on the
/// forwarding path.
using PacketRef = std::uint32_t;

/// Shard-aware slab of reusable Packet slots (DESIGN.md §14).
///
/// Storage is a table of fixed 512-slot chunks. Chunks are allocated on
/// demand by whichever shard's free list runs dry, owned by that shard, and
/// never move or shrink — so `at()` references are stable for the life of
/// the pool (a strict improvement over the old growable-vector slab, whose
/// references died at the next acquire). A PacketRef encodes
/// (chunk index << 9) | slot-in-chunk.
///
/// Sharding contract: `acquire()` and `release()` resolve the calling
/// shard via sim::current_domain(). Each shard has a private free list, so
/// the steady-state path is exactly the serial pool's: pop/push a vector,
/// zero heap allocation once warmed. A packet released by a shard that does
/// not own its chunk is NOT freed inline — it joins a per-(owner, releaser)
/// batch that `flush_returns()` publishes over a lock-free SPSC ring and
/// the owner reclaims in `drain_returns()`. The sharded engine calls those
/// two only at window boundaries, which keeps slot recycling deterministic:
/// every shard sees the same return batches in the same window for any
/// worker count.
///
/// With num_shards == 1 (the default, and the one-domain run's shape) no
/// rings exist and every release is a local free — `--shards 1` keeps the
/// allocation-free audit and behavior of the original pool.
///
/// Thread-safety: per-shard state is confined to the thread currently
/// scoped to that shard (the engine guarantees one worker per domain).
/// The chunk table itself is a fixed-size array of pointers: a new chunk is
/// published under `grow_mu_` before any of its refs escape the owning
/// shard, and the table never reallocates, so cross-thread `at()` on a
/// handed-off ref is race-free without atomics on the read path.
class PacketPool {
 public:
  explicit PacketPool(int num_shards = 1) : num_shards_(num_shards < 1 ? 1 : num_shards) {
    chunks_ = std::make_unique<Chunk[]>(kMaxChunks);
    chunk_owner_ = std::make_unique<std::uint16_t[]>(kMaxChunks);
    shards_.reserve(static_cast<std::size_t>(num_shards_));
    for (int s = 0; s < num_shards_; ++s) {
      shards_.push_back(std::make_unique<ShardState>());
      shards_.back()->outbound.resize(static_cast<std::size_t>(num_shards_));
    }
    if (num_shards_ > 1) {
      rings_.resize(static_cast<std::size_t>(num_shards_) *
                    static_cast<std::size_t>(num_shards_));
      for (auto& r : rings_) r = std::make_unique<common::SpscRing<PacketRef>>(kRingCapacity);
    }
  }

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  PacketRef acquire(Packet pkt) {
    ShardState& me = shard(sim::current_domain());
    if (me.free_list.empty()) grow(sim::current_domain());
    const PacketRef ref = me.free_list.back();
    me.free_list.pop_back();
    slot(ref) = std::move(pkt);
    return ref;
  }

  Packet& at(PacketRef ref) {
    VEDR_ASSERT((ref >> kChunkShift) < n_chunks_.load(std::memory_order_relaxed),
                "packet ref out of range");
    return slot(ref);
  }
  const Packet& at(PacketRef ref) const {
    VEDR_ASSERT((ref >> kChunkShift) < n_chunks_.load(std::memory_order_relaxed),
                "packet ref out of range");
    return chunks_[ref >> kChunkShift].slots[ref & kSlotMask];
  }

  void release(PacketRef ref) {
    VEDR_ASSERT((ref >> kChunkShift) < n_chunks_.load(std::memory_order_relaxed),
                "packet ref out of range");
    const int owner = chunk_owner_[ref >> kChunkShift];
    const int self = sim::current_domain();
    ShardState& me = shard(self);
    if (owner == self) {
      me.free_list.push_back(ref);
    } else {
      me.outbound[static_cast<std::size_t>(owner)].push_back(ref);
    }
  }

  /// Publishes `shard`'s batched cross-shard returns onto the owners' SPSC
  /// rings. Window-boundary only (the engine's flush hook); call order
  /// within the batch is preserved.
  void flush_returns(int from_shard) {
    ShardState& me = shard(from_shard);
    for (int owner = 0; owner < num_shards_; ++owner) {
      auto& batch = me.outbound[static_cast<std::size_t>(owner)];
      if (batch.empty()) continue;
      auto& ring = *rings_[ring_index(owner, from_shard)];
      for (const PacketRef ref : batch) ring.push(ref);
      batch.clear();
    }
  }

  /// Reclaims every slot other shards returned to `shard` since its last
  /// drain. Window-boundary only (the engine's drain hook), after the
  /// barrier that orders producers' flushes before it.
  void drain_returns(int to_shard) {
    ShardState& me = shard(to_shard);
    for (int from = 0; from < num_shards_; ++from) {
      if (from == to_shard) continue;
      rings_[ring_index(to_shard, from)]->drain_into(me.free_list);
    }
  }

  /// Slots ever created (pool high-water mark), all shards.
  std::size_t capacity() const {
    return static_cast<std::size_t>(n_chunks_.load(std::memory_order_relaxed)) * kChunkSlots;
  }

  /// Slots currently holding an in-flight packet. Exact only when quiesced
  /// with all return rings drained (i.e. after flush_returns+drain_returns
  /// on every shard, or trivially in the single-shard case).
  std::size_t in_use() const {
    std::size_t free_or_pending = 0;
    for (const auto& s : shards_) {
      free_or_pending += s->free_list.size();
      for (const auto& b : s->outbound) free_or_pending += b.size();
    }
    return capacity() - free_or_pending;
  }

  int num_shards() const { return num_shards_; }
  /// Which shard's free list a ref recycles into.
  int owner_of(PacketRef ref) const { return chunk_owner_[ref >> kChunkShift]; }

 private:
  static constexpr std::uint32_t kChunkShift = 9;  ///< 512 slots per chunk
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  static constexpr std::uint32_t kSlotMask = kChunkSlots - 1;
  /// Fixed table bound: 32768 chunks = 16.7M concurrent slots, far above any
  /// workload here; the fixed table is what makes lock-free `at()` sound.
  static constexpr std::uint32_t kMaxChunks = 1u << 15;
  static constexpr std::size_t kRingCapacity = 1024;

  struct Chunk {
    std::unique_ptr<Packet[]> slots;
  };

  /// Per-shard mutable state, cache-line separated to keep neighbouring
  /// shards' free-list traffic off each other's lines.
  struct alignas(64) ShardState {
    std::vector<PacketRef> free_list;
    /// outbound[owner]: refs released here but owned elsewhere, awaiting
    /// the next flush_returns().
    std::vector<std::vector<PacketRef>> outbound;
  };

  ShardState& shard(int s) { return *shards_[static_cast<std::size_t>(s)]; }
  Packet& slot(PacketRef ref) { return chunks_[ref >> kChunkShift].slots[ref & kSlotMask]; }
  std::size_t ring_index(int owner, int releaser) const {
    return static_cast<std::size_t>(owner) * static_cast<std::size_t>(num_shards_) +
           static_cast<std::size_t>(releaser);
  }

  void grow(int for_shard) VEDR_EXCLUDES(grow_mu_) {
    std::uint32_t idx;
    {
      common::MutexLock lock(grow_mu_);
      idx = n_chunks_.load(std::memory_order_relaxed);
      VEDR_CHECK(idx < kMaxChunks, "packet pool exhausted its chunk table");
      chunks_[idx].slots = std::make_unique<Packet[]>(kChunkSlots);
      chunk_owner_[idx] = static_cast<std::uint16_t>(for_shard);
      n_chunks_.store(idx + 1, std::memory_order_release);
    }
    // Fill descending so back() pops ascending — fresh slots are consumed in
    // index order, matching the old slab's append-then-use behavior.
    auto& free_list = shard(for_shard).free_list;
    const PacketRef base = idx << kChunkShift;
    for (std::uint32_t i = kChunkSlots; i-- > 0;)
      free_list.push_back(base + static_cast<PacketRef>(i));
  }

  int num_shards_;
  /// Fixed pointer table; entries are written once under grow_mu_ and then
  /// immutable, so the lock-free reads in at()/release() are race-free.
  std::unique_ptr<Chunk[]> chunks_;
  std::unique_ptr<std::uint16_t[]> chunk_owner_;
  std::atomic<std::uint32_t> n_chunks_{0};
  common::Mutex grow_mu_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// rings_[owner * S + releaser]: producer = releaser's worker, consumer =
  /// owner's worker. Empty when num_shards_ == 1.
  std::vector<std::unique_ptr<common::SpscRing<PacketRef>>> rings_;
};

}  // namespace vedr::net
