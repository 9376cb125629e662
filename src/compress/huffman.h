// Canonical Huffman codes with an explicit length limit, as DEFLATE needs
// (15 bits for literal/length and distance alphabets, 7 for the code-length
// alphabet). Lengths are produced by the package-merge algorithm, which is
// optimal under a length bound; codes are assigned canonically per
// RFC 1951 §3.2.2.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "support/bitstream.h"

namespace cdc::compress {

/// Optimal length-limited code lengths for the given symbol frequencies.
/// Symbols with zero frequency get length 0 (no code). If only one symbol
/// has nonzero frequency it is assigned length 1. Returns one length per
/// symbol, all <= `limit`.
std::vector<std::uint8_t> package_merge_lengths(
    std::span<const std::uint64_t> freqs, int limit);

/// package_merge_lengths writing into `lengths` (one per symbol). Its
/// scratch is per thread and only grows, so steady-state calls do not
/// allocate.
void package_merge_lengths_into(std::span<const std::uint64_t> freqs,
                                int limit, std::span<std::uint8_t> lengths);

/// Canonical code values for given code lengths (RFC 1951 §3.2.2).
/// codes[s] is meaningful only where lengths[s] > 0.
std::vector<std::uint32_t> canonical_codes(
    std::span<const std::uint8_t> lengths);

/// Canonical Huffman decoder. decode() resolves almost every symbol with
/// one table lookup over the next kFastBits bits (codes longer than that
/// fall back to the bit-serial feed() path, kept public for tests).
/// Construction fails (ok() == false) on oversubscribed or (for multi-
/// symbol alphabets) incomplete length sets, which is how the DEFLATE
/// decoder rejects corrupt dynamic headers.
class HuffmanDecoder {
 public:
  static constexpr int kMaxBits = 15;
  /// Width of the primary decode table. DEFLATE's dynamic tables rarely
  /// assign lengths beyond 9 bits to symbols that actually occur, so the
  /// fast path covers nearly every decoded symbol.
  static constexpr int kFastBits = 9;

  HuffmanDecoder() = default;
  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths) {
    init(lengths);
  }

  /// (Re)builds the decode tables. Returns ok().
  bool init(std::span<const std::uint8_t> lengths);

  [[nodiscard]] bool ok() const noexcept { return ok_; }

  /// Starts decoding a fresh symbol.
  void reset() noexcept {
    code_ = 0;
    length_ = 0;
  }

  /// Decodes one symbol from `br`: peek kFastBits, one table lookup,
  /// consume only the code's real length. Returns -1 on malformed or
  /// truncated input.
  int decode(support::BitReader& br) noexcept {
    std::uint32_t bits = 0;
    const int have = br.peek_padded(kFastBits, bits);
    const std::uint16_t entry = fast_[bits];
    if (entry != 0) {
      const int len = entry & 0xfu;
      if (len > have) return -1;  // code runs past the end of the stream
      br.consume(len);
      return static_cast<int>(entry >> 4);
    }
    // The peeked bits are a prefix of a code longer than kFastBits (or
    // the input is corrupt): decode bit-serially from the same position.
    reset();
    for (;;) {
      std::uint32_t bit = 0;
      if (!br.try_read_bit(bit)) return -1;
      const int sym = feed(bit);
      if (sym >= 0) return sym;
      if (sym == -2) return -1;
    }
  }

  /// Primary-table entry for the low kFastBits of `bits` (bits in
  /// LSB-first stream order, as a 64-bit accumulator holds them):
  /// (symbol << 4) | code_length, 0 = long code or invalid prefix. The
  /// seam for accumulator-based decoders that bypass BitReader; only
  /// meaningful while ok().
  [[nodiscard]] std::uint16_t fast_entry(std::uint64_t bits) const noexcept {
    return fast_[static_cast<std::size_t>(bits) & (kFastSize - 1)];
  }

  /// Bit-serial decode from the low `avail` bits of `bits` (LSB-first
  /// stream order) — the slow path behind fast_entry() == 0. On success
  /// returns the symbol and sets `used` to the code length; returns -1
  /// when the code runs past `avail` bits (truncated input), -2 when no
  /// code matches within kMaxBits (corrupt input).
  [[nodiscard]] int decode_bits(std::uint64_t bits, int avail,
                                int& used) const noexcept {
    std::uint32_t code = 0;
    for (int len = 1; len <= kMaxBits; ++len) {
      if (len > avail) return -1;
      code = (code << 1) |
             static_cast<std::uint32_t>((bits >> (len - 1)) & 1u);
      const std::uint32_t first = first_code_[len];
      if (code >= first && code - first < count_[len]) {
        used = len;
        return symbols_[offset_[len] + (code - first)];
      }
    }
    return -2;
  }

  /// Consumes one bit; returns the symbol when complete, -1 when more bits
  /// are needed, -2 on an invalid code.
  int feed(std::uint32_t bit) noexcept {
    code_ = (code_ << 1) | (bit & 1u);
    ++length_;
    if (length_ > kMaxBits) return -2;
    const std::uint32_t first = first_code_[length_];
    const std::uint32_t count = count_[length_];
    if (code_ >= first && code_ - first < count) {
      const int sym = symbols_[offset_[length_] + (code_ - first)];
      reset();
      return sym;
    }
    return -1;
  }

 private:
  static constexpr std::size_t kFastSize = std::size_t{1} << kFastBits;

  void build_fast_table() noexcept;

  bool ok_ = false;
  std::uint32_t code_ = 0;
  int length_ = 0;
  std::uint32_t first_code_[kMaxBits + 1] = {};
  std::uint32_t count_[kMaxBits + 1] = {};
  std::uint32_t offset_[kMaxBits + 1] = {};
  std::vector<std::uint16_t> symbols_;
  // Indexed by the next kFastBits of the stream (LSB-first as read);
  // entry = (symbol << 4) | code_length, 0 = long code or invalid prefix.
  std::array<std::uint16_t, kFastSize> fast_ = {};
};

}  // namespace cdc::compress
