#include "net/packet_pool.h"

#include <gtest/gtest.h>

#include <vector>

namespace vedr::net {
namespace {

Packet data_packet(std::uint32_t seq) {
  Packet p;
  p.type = PacketType::kData;
  p.seq = seq;
  p.size = 1024;
  return p;
}

TEST(PacketPool, AcquireReleaseReusesSlots) {
  PacketPool pool;
  const PacketRef a = pool.acquire(data_packet(1));
  const PacketRef b = pool.acquire(data_packet(2));
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.at(a).seq, 1u);
  EXPECT_EQ(pool.at(b).seq, 2u);
  EXPECT_EQ(pool.in_use(), 2u);

  pool.release(a);
  EXPECT_EQ(pool.in_use(), 1u);
  // LIFO free list: the slot just released is the next one out.
  const PacketRef c = pool.acquire(data_packet(3));
  EXPECT_EQ(c, a);
  EXPECT_EQ(pool.at(c).seq, 3u);
}

TEST(PacketPool, ReferencesSurviveGrowth) {
  // The original slab invalidated at() references whenever the backing
  // vector grew; the chunked pool must not. Pin a reference, force several
  // chunk allocations, and check the pinned slot is untouched.
  PacketPool pool;
  const PacketRef first = pool.acquire(data_packet(7));
  Packet* pinned = &pool.at(first);

  std::vector<PacketRef> refs;
  for (std::uint32_t i = 0; i < 4096; ++i) refs.push_back(pool.acquire(data_packet(i)));

  EXPECT_EQ(&pool.at(first), pinned);
  EXPECT_EQ(pinned->seq, 7u);
  EXPECT_GE(pool.capacity(), 4097u);
  for (const PacketRef r : refs) pool.release(r);
}

}  // namespace
}  // namespace vedr::net
