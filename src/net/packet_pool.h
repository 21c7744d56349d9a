#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "net/packet.h"

namespace vedr::net {

/// Index of a pooled Packet slot. Refs travel through typed-event payloads
/// and switch queues so a frame occupies exactly one slot from host tx
/// through links and switch queues to final rx — no Packet copies on the
/// forwarding path.
using PacketRef = std::uint32_t;

/// Slab of reusable Packet slots (DESIGN.md §8).
///
/// Storage is a table of fixed 512-slot chunks, allocated when the free list
/// runs dry and never moved or freed while the pool lives, so an `at()`
/// reference stays valid across later acquires (until its slot is
/// released). A PacketRef encodes (chunk index << 9) | slot-in-chunk. One
/// LIFO free list: once the pool reaches its high-water mark, acquire and
/// release allocate nothing.
///
/// Threading contract: VEDR_SINGLE_THREADED — each simulation domain owns
/// one pool (Network::pool()), touched only by the worker running that
/// domain. A packet that crosses domains travels by value: the sender's
/// slot is released at once and the receiver acquires one of its own when
/// it drains the handoff (DESIGN.md §14).
class VEDR_SINGLE_THREADED PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  PacketRef acquire(Packet pkt) {
    if (free_.empty()) grow();
    const PacketRef ref = free_.back();
    free_.pop_back();
    at(ref) = std::move(pkt);
    return ref;
  }

  Packet& at(PacketRef ref) {
    VEDR_ASSERT((ref >> kChunkShift) < chunks_.size(), "packet ref out of range");
    return chunks_[ref >> kChunkShift][ref & kSlotMask];
  }
  const Packet& at(PacketRef ref) const {
    VEDR_ASSERT((ref >> kChunkShift) < chunks_.size(), "packet ref out of range");
    return chunks_[ref >> kChunkShift][ref & kSlotMask];
  }

  void release(PacketRef ref) {
    VEDR_ASSERT((ref >> kChunkShift) < chunks_.size(), "packet ref out of range");
    free_.push_back(ref);
  }

  /// Slots ever created (the pool's high-water mark).
  std::size_t capacity() const { return chunks_.size() * kChunkSlots; }

  /// Slots currently holding an in-flight packet.
  std::size_t in_use() const { return capacity() - free_.size(); }

 private:
  static constexpr std::uint32_t kChunkShift = 9;  ///< 512 slots per chunk
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  static constexpr std::uint32_t kSlotMask = kChunkSlots - 1;

  void grow() {
    const auto base = static_cast<PacketRef>(chunks_.size()) << kChunkShift;
    chunks_.push_back(std::make_unique<Packet[]>(kChunkSlots));
    // Fill descending so back() pops ascending: fresh slots are consumed in
    // index order.
    for (std::uint32_t i = kChunkSlots; i-- > 0;) free_.push_back(base + i);
  }

  std::vector<std::unique_ptr<Packet[]>> chunks_;
  std::vector<PacketRef> free_;
};

}  // namespace vedr::net
