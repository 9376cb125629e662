// Deterministic pseudo-random number generation.
//
// The simulator's noise model and all property tests need RNG streams that
// are bit-reproducible across platforms and standard-library versions, so
// we implement xoshiro256** (Blackman & Vigna) rather than rely on
// std::mt19937 distribution behaviour.
#pragma once

#include <cstdint>
#include <limits>

namespace cdc::support {

/// The splitmix64 generator's increment (the golden ratio in 64 bits).
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;

/// The splitmix64 finalizer (Steele, Lea & Flood): a splitmix64 generator
/// adds kGoldenGamma to its state and returns splitmix64(state). The
/// simulator's per-rank seeds, the apps' counter-based streams and the
/// fuzzer's seed layout all use it.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 — a small, fast, high-quality 64-bit PRNG.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from a single 64-bit seed via splitmix64,
  /// as recommended by the xoshiro authors.
  explicit Xoshiro256(std::uint64_t seed = kGoldenGamma) noexcept {
    for (auto& word : state_) word = splitmix64(seed += kGoldenGamma);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire reduction
  /// with rejection).
  std::uint64_t bounded(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Exponentially distributed double with the given mean (> 0).
  /// Used by the simulator's message-latency noise model.
  double exponential(double mean) noexcept {
    // -log(1 - u) * mean; u < 1 strictly so the log argument is > 0.
    double u = uniform();
    return -__builtin_log1p(-u) * mean;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace cdc::support
