// The table-driven CRC-32 against its definition: a bit-at-a-time reference
// with no tables. Lengths, start offsets and split points cover every path
// through the eight-bytes-at-a-time loop and its bytewise tail.
#include <gtest/gtest.h>

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
  const std::string buf = test_bytes(300 + 8);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::string_view data = std::string_view(buf).substr(off, len);
      ASSERT_EQ(crc32_update(kCrcInit, data), crc32_bitwise(kCrcInit, data))
          << "offset " << off << " length " << len;
      ASSERT_EQ(crc32(data), crc32_bitwise(kCrcInit, data) ^ 0xFFFFFFFFU)
          << "offset " << off << " length " << len;
    }
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
