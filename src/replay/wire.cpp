#include "replay/wire.h"

#include <array>
#include <bit>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

#if defined(__x86_64__)

// Folding with carry-less multiplies (Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), the
// scheme of zlib's and Linux's crc32-pclmul. Four 128-bit lanes advance 64
// bytes per step, one lane folds the remaining 16-byte blocks, and a Barrett
// reduction takes the 64-bit remainder to 32 bits. The constants are
// bit-reflected: k1/k2 are the powers of x modulo the CRC polynomial P that
// move a lane forward by 512 bits, k3/k4 by 128 bits and k5 by 64 bits;
// mu = floor(x^64 / P), and P' is P itself. Compiled for PCLMULQDQ by a
// function target attribute, and called only when the CPU reports it.
__attribute__((target("pclmul"))) __m128i fold_lane(__m128i lane, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

__m128i load16(const char* p) { return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)); }

/// CRC state after `n` bytes at `p`; n >= 64 and a multiple of 16.
__attribute__((target("pclmul"))) std::uint32_t crc32_fold(std::uint32_t state, const char* p,
                                                            std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i mu_poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);

  __m128i x1 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = fold_lane(x1, k1k2, load16(p));
    x2 = fold_lane(x2, k1k2, load16(p + 16));
    x3 = fold_lane(x3, k1k2, load16(p + 32));
    x4 = fold_lane(x4, k1k2, load16(p + 48));
  }
  x1 = fold_lane(x1, k3k4, x2);
  x1 = fold_lane(x1, k3k4, x3);
  x1 = fold_lane(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold_lane(x1, k3k4, load16(p));

  // 128 -> 64 bits, then 64 -> 32 bits (the 32 zero bits a CRC appends).
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction: q = floor(r * mu), then r ^= q * P'.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), mu_poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), mu_poly, 0x00);
  x1 = _mm_xor_si128(x1, q);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

bool have_pclmul() {
  static const bool kHave = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return kHave;
}

/// Inputs shorter than this stay on the sliced path (the fold needs four
/// lanes' worth of blocks to start).
constexpr std::size_t kFoldMinBytes = 64;

#endif  // __x86_64__

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, std::string_view data) {
#if defined(__x86_64__)
  if (data.size() >= kFoldMinBytes && have_pclmul()) {
    const std::size_t blocks = data.size() & ~std::size_t{15};
    state = crc32_fold(state, data.data(), blocks);
    data.remove_prefix(blocks);
  }
#endif
  return crc32_update_sliced(state, data);
}

std::uint32_t crc32_update_sliced(std::uint32_t state, std::string_view data) {
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
