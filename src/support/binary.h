// Byte-level binary serialization: growable byte sink with LEB128 varints,
// zigzag signed mapping, and fixed-width little-endian primitives.
//
// Every record format in the library (the traditional baseline format, the
// CDC chunk format, storage framing) is written and parsed through these
// two classes so that sizes are accounted identically everywhere.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "support/check.h"

namespace cdc::support {

/// Maps a signed integer onto an unsigned one so that values near zero
/// (of either sign) become small varints: 0,-1,1,-2,2 → 0,1,2,3,4.
constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Bytes ByteWriter::varint spends on `v`.
constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  return v == 0 ? 1 : (static_cast<std::size_t>(std::bit_width(v)) + 6) / 7;
}

/// Growable little-endian byte writer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopts `buf` (cleared, capacity kept) as the output buffer — the
  /// allocation-reuse seam for pooled frame encoding.
  explicit ByteWriter(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {
    buf_.clear();
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  /// Unsigned LEB128.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Zigzag-mapped signed LEB128.
  void svarint(std::int64_t v) { varint(zigzag_encode(v)); }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Length-prefixed byte string.
  void sized_bytes(std::span<const std::uint8_t> data) {
    varint(data.size());
    bytes(data);
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> view() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }
  void clear() noexcept { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian byte reader over a non-owning view.
/// Format errors (truncation, overlong varints) trip CDC_CHECK via the
/// `ok()`-returning try_* API or the aborting plain API; parsers that must
/// survive corrupt input use try_*.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

  [[nodiscard]] bool try_u8(std::uint8_t& out) noexcept {
    if (remaining() < 1) return false;
    out = data_[pos_++];
    return true;
  }

  [[nodiscard]] bool try_u32(std::uint32_t& out) noexcept {
    if (remaining() < 4) return false;
    out = 0;
    for (int i = 0; i < 4; ++i)
      out |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return true;
  }

  [[nodiscard]] bool try_u64(std::uint64_t& out) noexcept {
    if (remaining() < 8) return false;
    out = 0;
    for (int i = 0; i < 8; ++i)
      out |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return true;
  }

  [[nodiscard]] bool try_varint(std::uint64_t& out) noexcept {
    out = 0;
    int shift = 0;
    while (pos_ < data_.size() && shift < 64) {
      const std::uint8_t byte = data_[pos_++];
      out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return true;
      shift += 7;
    }
    return false;
  }

  [[nodiscard]] bool try_svarint(std::int64_t& out) noexcept {
    std::uint64_t raw = 0;
    if (!try_varint(raw)) return false;
    out = zigzag_decode(raw);
    return true;
  }

  [[nodiscard]] bool try_bytes(std::size_t n,
                               std::span<const std::uint8_t>& out) noexcept {
    if (remaining() < n) return false;
    out = data_.subspan(pos_, n);
    pos_ += n;
    return true;
  }

  [[nodiscard]] bool try_sized_bytes(
      std::span<const std::uint8_t>& out) noexcept {
    std::uint64_t n = 0;
    if (!try_varint(n) || n > remaining()) return false;
    return try_bytes(static_cast<std::size_t>(n), out);
  }

  // Aborting variants for trusted in-process round-trips.
  std::uint8_t u8() {
    std::uint8_t v{};
    CDC_CHECK_MSG(try_u8(v), "truncated u8");
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v{};
    CDC_CHECK_MSG(try_u32(v), "truncated u32");
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v{};
    CDC_CHECK_MSG(try_u64(v), "truncated u64");
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::uint64_t varint() {
    std::uint64_t v{};
    CDC_CHECK_MSG(try_varint(v), "truncated varint");
    return v;
  }
  std::int64_t svarint() {
    std::int64_t v{};
    CDC_CHECK_MSG(try_svarint(v), "truncated svarint");
    return v;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace cdc::support
