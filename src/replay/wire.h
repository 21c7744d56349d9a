#pragma once

// Low-level byte codec for the .vtrc trace format: little-endian fixed-width
// scalars, length-prefixed sequences, and CRC-32 (IEEE 802.3) for frame
// integrity. Shared by TraceWriter and TraceReader so the two sides cannot
// drift; see DESIGN.md appendix "The .vtrc trace format" for the layout.

#include <cstdint>
#include <string>
#include <string_view>

namespace vedr::replay {

/// CRC-32 (reflected polynomial 0xEDB88320, init/xorout 0xFFFFFFFF) — the
/// standard zlib/Ethernet CRC, slicing-by-8 over compile-time tables. The
/// streaming form lets a frame CRC cover several buffers without
/// concatenating them:
///   state = crc32_update(kCrcInit, a); state = crc32_update(state, b);
///   crc = crc32_finish(state);
inline constexpr std::uint32_t kCrcInit = 0xFFFFFFFFU;
std::uint32_t crc32_update(std::uint32_t state, std::string_view data);
inline std::uint32_t crc32_finish(std::uint32_t state) { return state ^ 0xFFFFFFFFU; }
inline std::uint32_t crc32(std::string_view data) {
  return crc32_finish(crc32_update(kCrcInit, data));
}

/// Appends little-endian scalars to a growing byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }

  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// u32 element count; the caller then writes `n` elements.
  void count(std::size_t n) { u32(static_cast<std::uint32_t>(n)); }

  void bytes(std::string_view s) { buf_.append(s.data(), s.size()); }

  /// Overwrites the u32 at byte `at`, e.g. a length written before its payload.
  void u32_at(std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) buf_[at + i] = static_cast<char>(v >> (8 * i));
  }

  /// Empties the buffer and keeps its capacity, for a writer that reuses it.
  void clear() { buf_.clear(); }
  const std::string& data() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  /// Appends the low `n` <= 8 bytes of `v`, least significant first, with
  /// one append rather than one push_back per byte.
  void le(std::uint64_t v, std::size_t n) {
    char b[8] = {};
    for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, n);
  }

  std::string buf_;
};

/// Bounds-checked little-endian reader over a decoded payload. Any read past
/// the end latches `ok() == false` and returns zeros; decoders check ok()
/// once at the end instead of after every field, and a short payload can
/// never read out of bounds (the corruption tests exercise this under ASan).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    if (pos_ + 1 > data_.size()) return fail8();
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }

  /// Reads a u32 element count and validates that at least `min_elem_bytes`
  /// per element remain — a corrupt count cannot trigger a huge reserve.
  std::size_t count(std::size_t min_elem_bytes) {
    const std::uint32_t n = u32();
    if (min_elem_bytes > 0 && static_cast<std::uint64_t>(n) * min_elem_bytes > remaining()) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool ok() const { return ok_; }

  /// Latches failure for a value the decoder rejects (an out-of-range enum,
  /// a wrong fixed count): every later read returns zeros.
  void fail() {
    ok_ = false;
    pos_ = data_.size();
  }

 private:
  std::uint8_t fail8() {
    fail();
    return 0;
  }

  /// Little-endian read of `n` <= 8 bytes behind one bounds check, not one
  /// per byte: the payload codec inlines every read into its element loops.
  std::uint64_t le(std::size_t n) {
    if (n > data_.size() - pos_) return fail8();
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_ + i])) << (8 * i);
    pos_ += n;
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace vedr::replay
