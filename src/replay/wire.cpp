#include "replay/wire.h"

#include <array>
#include <bit>

namespace vedr::replay {

namespace {

// Slicing-by-8 (Kounavis and Berry, ISCC 2005): table s maps a byte to the
// CRC of that byte followed by s zero bytes, so eight table lookups fold
// eight input bytes into the state at once. Table 0 is the bytewise table.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < t.size(); ++s)
    for (std::size_t i = 0; i < 256; ++i) t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFU];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();
static_assert(kCrcTables[0][1] == 0x77073096U, "CRC-32 table 0 entry 1");

/// Little-endian u32 at `p`, assembled from bytes (GCC and Clang fold this
/// into one load on little-endian targets; it is correct on any target).
std::uint32_t load_le32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[0])) |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[3])) << 24;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, std::string_view data) {
  const auto& t = kCrcTables;
  const char* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = state ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    state = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^ t[5][(lo >> 16) & 0xFFU] ^
            t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^ t[2][(hi >> 8) & 0xFFU] ^
            t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n)
    state = t[0][(state ^ static_cast<std::uint8_t>(*p)) & 0xFFU] ^ (state >> 8);
  return state;
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

}  // namespace vedr::replay
