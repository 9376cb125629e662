// LSB-first bit streams as used by DEFLATE (RFC 1951 §3.1.1): bits are
// packed into bytes starting from the least-significant bit; Huffman codes
// are written most-significant-code-bit first via write_huffman.
//
// The writer keeps up to 64 pending bits in a register and flushes whole
// bytes in batches (put_bits), so the encoder's hot loop pays one branch
// per symbol instead of one per output byte. The reader exposes
// peek/consume so table-driven Huffman decoders can look at the next N
// bits without committing to a length.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/check.h"

namespace cdc::support {

class BitWriter {
 public:
  BitWriter() = default;

  /// Adopts `buf` (cleared, capacity kept) as the output buffer — the
  /// allocation-reuse seam for pooled/thread-local codec workspaces.
  explicit BitWriter(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {
    buf_.clear();
  }

  /// Writes the low `count` bits of `bits`, LSB first. count <= 32.
  void write(std::uint32_t bits, int count) {
    CDC_DCHECK(count >= 0 && count <= 32);
    put_bits(bits & mask(count), count);
  }

  /// Fast path: `bits` must already fit in `count` bits (no masking).
  /// count <= 57. Flushes pending whole bytes at most once per call.
  void put_bits(std::uint64_t bits, int count) {
    CDC_DCHECK(count >= 0 && count <= 57);
    CDC_DCHECK(count == 57 || (bits >> count) == 0);
    if (used_ + count > 64) flush_whole_bytes();
    acc_ |= bits << used_;
    used_ += count;
  }

  /// Writes a Huffman code: code bits are emitted from the MSB of the
  /// `length`-bit code first, matching DEFLATE's convention. Encoders on
  /// the hot path should pre-reverse codes once and use put_bits instead.
  void write_huffman(std::uint32_t code, int length) {
    std::uint32_t reversed = 0;
    for (int i = 0; i < length; ++i)
      reversed |= ((code >> i) & 1u) << (length - 1 - i);
    put_bits(reversed, length);
  }

  /// Pads to a byte boundary with zero bits.
  void align_to_byte() {
    flush_whole_bytes();
    if (used_ > 0) {
      buf_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ = 0;
      used_ = 0;
    }
  }

  /// Flushes any partial byte and returns the buffer.
  std::vector<std::uint8_t> finish() && {
    align_to_byte();
    return std::move(buf_);
  }

  void append_byte(std::uint8_t b) {
    CDC_DCHECK(used_ == 0);
    buf_.push_back(b);
  }

  /// Bulk byte append (stored blocks); only legal on a byte boundary.
  void append_bytes(std::span<const std::uint8_t> bytes) {
    CDC_DCHECK(used_ == 0);
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

 private:
  void flush_whole_bytes() {
    while (used_ >= 8) {
      buf_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ >>= 8;
      used_ -= 8;
    }
  }

  static constexpr std::uint32_t mask(int count) noexcept {
    return count == 32 ? ~0u : (1u << count) - 1u;
  }

  std::vector<std::uint8_t> buf_;
  std::uint64_t acc_ = 0;
  int used_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  /// Reads `count` bits LSB-first. Returns false on underrun.
  [[nodiscard]] bool try_read(int count, std::uint32_t& out) noexcept {
    if (!try_peek(count, out)) return false;
    consume(count);
    return true;
  }

  /// Reads a single bit; false on underrun.
  [[nodiscard]] bool try_read_bit(std::uint32_t& out) noexcept {
    return try_read(1, out);
  }

  /// Peeks the next `count` bits without consuming them; false when fewer
  /// than `count` bits remain in the stream. count <= 32.
  [[nodiscard]] bool try_peek(int count, std::uint32_t& out) noexcept {
    while (used_ < count) {
      if (pos_ >= data_.size()) return false;
      acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << used_;
      used_ += 8;
    }
    out = static_cast<std::uint32_t>(acc_) & mask(count);
    return true;
  }

  /// Peeks up to `count` bits, zero-padded past end of stream; returns
  /// how many real bits `out` holds (may be < count near the end).
  [[nodiscard]] int peek_padded(int count, std::uint32_t& out) noexcept {
    while (used_ < count && pos_ < data_.size()) {
      acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << used_;
      used_ += 8;
    }
    out = static_cast<std::uint32_t>(acc_) & mask(count);
    return used_ < count ? used_ : count;
  }

  /// Discards `count` previously peeked bits.
  void consume(int count) noexcept {
    CDC_DCHECK(count <= used_);
    acc_ >>= count;
    used_ -= count;
  }

  /// Discards bits up to the next byte boundary.
  void align_to_byte() noexcept {
    const int drop = used_ % 8;
    acc_ >>= drop;
    used_ -= drop;
  }

  /// Reads `n` whole bytes after alignment; false on underrun.
  [[nodiscard]] bool try_read_aligned_bytes(
      std::size_t n, std::span<const std::uint8_t>& out) noexcept {
    align_to_byte();
    // Whole bytes still buffered in acc_ are given back to data_ so that
    // the subspan below covers them.
    const std::size_t buffered = static_cast<std::size_t>(used_) / 8;
    CDC_DCHECK(pos_ >= buffered);
    pos_ -= buffered;
    acc_ = 0;
    used_ = 0;
    if (data_.size() - pos_ < n) return false;
    out = data_.subspan(pos_, n);
    pos_ += n;
    return true;
  }

 private:
  static constexpr std::uint32_t mask(int count) noexcept {
    return count == 32 ? ~0u : (1u << count) - 1u;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  int used_ = 0;
};

}  // namespace cdc::support
