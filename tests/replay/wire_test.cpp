// The CRC-32 against its definition: a bit-at-a-time reference with no
// tables. Lengths, start offsets, start states and split points cover every
// path through the carry-less fold (several 64-byte blocks, every 16-byte
// remainder, both sides of its 64-byte threshold) and through the portable
// slicing-by-8 loop and its bytewise tail; the portable path is also called
// directly, so it stays tested on a host that folds.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <string_view>

#include "replay/wire.h"

namespace vedr::replay {
namespace {

/// CRC-32 one bit per step (reflected polynomial 0xEDB88320).
std::uint32_t crc32_bitwise(std::uint32_t state, std::string_view data) {
  for (const char ch : data) {
    state ^= static_cast<std::uint8_t>(ch);
    for (int k = 0; k < 8; ++k) state = (state & 1U) ? 0xEDB88320U ^ (state >> 1) : state >> 1;
  }
  return state;
}

/// `n` deterministic bytes spread over all 256 values (an LCG's high bytes).
std::string test_bytes(std::size_t n) {
  std::string s(n, '\0');
  std::uint32_t x = 0x2545F491U;
  for (char& c : s) {
    x = x * 1664525U + 1013904223U;
    c = static_cast<char>(x >> 24);
  }
  return s;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndStartOffset) {
  constexpr std::size_t kMaxLen = 1100;
  const std::string buf = test_bytes(kMaxLen + 8);
  // A fresh CRC, and states a CRC reaches mid-stream.
  for (const std::uint32_t start : {kCrcInit, 0x00000000U, 0x2A5F31C7U, 0x80000001U}) {
    for (std::size_t off = 0; off < 8; ++off) {
      // The reference advances one byte per length step.
      std::uint32_t expect = start;
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        if (len > 0) expect = crc32_bitwise(expect, std::string_view(&buf[off + len - 1], 1));
        const std::string_view data = std::string_view(buf).substr(off, len);
        ASSERT_EQ(crc32_update(start, data), expect)
            << "start " << start << " offset " << off << " length " << len;
        ASSERT_EQ(crc32_update_sliced(start, data), expect)
            << "start " << start << " offset " << off << " length " << len;
        if (start == kCrcInit) {
          ASSERT_EQ(crc32(data), expect ^ 0xFFFFFFFFU) << "offset " << off << " length " << len;
        }
      }
    }
  }
}

TEST(Crc32, DispatchedAndSlicedAgreeOnRandomInputs) {
  std::mt19937_64 rng(2009);
  std::string buf(2000 + 16, '\0');
  for (char& c : buf) c = static_cast<char>(rng());
  for (int i = 0; i < 20000; ++i) {
    const std::size_t off = rng() % 16;
    const std::size_t len = rng() % 2001;
    const auto start = static_cast<std::uint32_t>(rng());
    const std::string_view data = std::string_view(buf).substr(off, len);
    ASSERT_EQ(crc32_update(start, data), crc32_update_sliced(start, data))
        << "start " << start << " offset " << off << " length " << len;
  }
}

TEST(Crc32, StreamingMatchesOneShotAtEverySplitPoint) {
  const std::string buf = test_bytes(64);
  const std::uint32_t whole = crc32_finish(crc32_bitwise(kCrcInit, buf));
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    const std::string_view head = std::string_view(buf).substr(0, cut);
    const std::string_view tail = std::string_view(buf).substr(cut);
    EXPECT_EQ(crc32_finish(crc32_update(crc32_update(kCrcInit, head), tail)), whole)
        << "split at " << cut;
  }
}

TEST(ByteWriter, ScalarsAreLittleEndian) {
  ByteWriter w;
  w.u8(0x01);
  w.u16(0x0302);
  w.u32(0x07060504U);
  w.u64(0x0F0E0D0C0B0A0908ULL);
  EXPECT_EQ(w.data(), std::string("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0A\x0B\x0C\x0D\x0E\x0F"));
  w.u32_at(3, 0xA3A2A1A0U);
  EXPECT_EQ(w.data().substr(3, 4), std::string("\xA0\xA1\xA2\xA3"));
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_EQ(r.u16(), 0x0302);
  EXPECT_EQ(r.u32(), 0xA3A2A1A0U);
}

}  // namespace
}  // namespace vedr::replay
