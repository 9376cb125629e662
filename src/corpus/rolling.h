// Karp-Rabin rolling hashes over byte strings.
//
// The fingerprinting substrate of the differential encoder
// (corpus/delta.h): it fingerprints fixed-width byte windows with a
// polynomial hash, following Ajtai/Burns/Fagin/Long/Stockmeyer (JACM
// 49(3), 2002) §4: arithmetic modulo the Mersenne prime 2^61-1 with a
// small polynomial base for good bit mixing. A window hash can be rolled
// one byte at a time in O(1), and rolling from offset i to i+1 yields
// exactly the direct polynomial evaluation at i+1 — the property the
// encoder's footprint table (and its property tests) rest on.
#pragma once

#include <cstdint>
#include <span>

#include "support/check.h"

namespace cdc::corpus {

/// 2^61 - 1: multiplication of two residues fits in __uint128_t and the
/// Mersenne form makes the reduction two adds.
inline constexpr std::uint64_t kKarpRabinPrime = (std::uint64_t{1} << 61) - 1;

/// Default polynomial base (a primitive-ish small odd base).
inline constexpr std::uint64_t kKarpRabinBase = 263;

[[nodiscard]] constexpr std::uint64_t kr_mod(std::uint64_t v) noexcept {
  v = (v & kKarpRabinPrime) + (v >> 61);
  return v >= kKarpRabinPrime ? v - kKarpRabinPrime : v;
}

[[nodiscard]] constexpr std::uint64_t kr_mul(std::uint64_t a,
                                             std::uint64_t b) noexcept {
  const unsigned __int128 wide =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  const std::uint64_t lo = static_cast<std::uint64_t>(wide) & kKarpRabinPrime;
  const std::uint64_t hi = static_cast<std::uint64_t>(wide >> 61);
  return kr_mod(lo + hi);
}

[[nodiscard]] constexpr std::uint64_t kr_add(std::uint64_t a,
                                             std::uint64_t b) noexcept {
  return kr_mod(a + b);
}

[[nodiscard]] constexpr std::uint64_t kr_sub(std::uint64_t a,
                                             std::uint64_t b) noexcept {
  return kr_mod(a + kKarpRabinPrime - kr_mod(b));
}

/// base^exp mod 2^61-1.
[[nodiscard]] constexpr std::uint64_t kr_pow(std::uint64_t base,
                                             std::uint64_t exp) noexcept {
  std::uint64_t result = 1;
  std::uint64_t acc = kr_mod(base);
  while (exp > 0) {
    if (exp & 1) result = kr_mul(result, acc);
    acc = kr_mul(acc, acc);
    exp >>= 1;
  }
  return result;
}

/// Direct polynomial evaluation: H(x) = sum x[i] * base^(n-1-i) mod p.
/// The reference the incremental roller must agree with at every offset.
[[nodiscard]] constexpr std::uint64_t kr_hash(
    std::span<const std::uint8_t> bytes,
    std::uint64_t base = kKarpRabinBase) noexcept {
  std::uint64_t h = 0;
  for (const std::uint8_t byte : bytes)
    h = kr_add(kr_mul(h, base), byte);
  return h;
}

/// Fixed-width window roller: push() grows the window to `width` bytes,
/// roll() slides it one byte in O(1). hash() equals kr_hash of the bytes
/// currently in the window.
class KarpRabinWindow {
 public:
  explicit KarpRabinWindow(std::size_t width,
                           std::uint64_t base = kKarpRabinBase)
      : width_(width), base_(kr_mod(base)),
        top_power_(kr_pow(base, width > 0 ? width - 1 : 0)) {
    CDC_CHECK_MSG(width > 0, "rolling window must be non-empty");
  }

  /// Appends one byte to a not-yet-full window.
  void push(std::uint8_t in) noexcept {
    hash_ = kr_add(kr_mul(hash_, base_), in);
    ++filled_;
  }

  /// Slides a full window: drops `out` (the byte that entered `width`
  /// steps ago) and appends `in`.
  void roll(std::uint8_t out, std::uint8_t in) noexcept {
    hash_ = kr_sub(hash_, kr_mul(out, top_power_));
    hash_ = kr_add(kr_mul(hash_, base_), in);
  }

  [[nodiscard]] bool full() const noexcept { return filled_ >= width_; }
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

  void reset() noexcept {
    hash_ = 0;
    filled_ = 0;
  }

 private:
  std::size_t width_;
  std::uint64_t base_;
  std::uint64_t top_power_;
  std::uint64_t hash_ = 0;
  std::size_t filled_ = 0;
};

}  // namespace cdc::corpus
