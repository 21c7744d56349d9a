#include <gtest/gtest.h>

#include "sim/rng.h"
#include "sim/stats.h"

namespace vedr::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng r(7);
  EXPECT_EQ(r.uniform_int(5, 5), 5);
}

TEST(Rng, UniformDoubleInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 4.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 4.0);
  }
}

TEST(Rng, IndexCoversContainer) {
  Rng r(11);
  bool seen[5] = {};
  for (int i = 0; i < 500; ++i) seen[r.index(5)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(99);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  Rng c1_again = Rng(99).fork(1);
  EXPECT_EQ(c1.next_u64(), c1_again.next_u64());
  EXPECT_NE(Rng(99).fork(1).next_u64(), c2.next_u64());
}

TEST(Rng, MixAvalanche) {
  // Single-bit input changes should flip roughly half the output bits.
  const std::uint64_t base = Rng::mix(0x1234, 0x5678);
  const std::uint64_t flipped = Rng::mix(0x1235, 0x5678);
  const int popcount = __builtin_popcountll(base ^ flipped);
  EXPECT_GT(popcount, 16);
  EXPECT_LT(popcount, 48);
}

TEST(StatsRegistry, CountersAccumulate) {
  StatsRegistry reg;
  reg.add_counter("a");
  reg.add_counter("a", 5);
  reg.add_counter("b", -2);
  EXPECT_EQ(reg.counter("a"), 6);
  EXPECT_EQ(reg.counter("b"), -2);
  EXPECT_EQ(reg.counter("missing"), 0);
  reg.reset();
  EXPECT_EQ(reg.counter("a"), 0);
}

}  // namespace
}  // namespace vedr::sim
