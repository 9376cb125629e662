// Karp-Rabin property tests: the incremental roller must agree with the
// direct polynomial evaluation at every window offset — the invariant the
// delta encoder's footprint table rests on (DESIGN.md §11).
//
// The fuzz_rolling suite carries the `fuzz_` prefix so the nightly
// `ctest -R fuzz` matrix re-runs it across seeds
// (CDC_FUZZ_BASE_SEED / CDC_FUZZ_SEEDS).
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "corpus/rolling.h"
#include "support/rng.h"

namespace cdc::corpus {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.bounded(256));
  return bytes;
}

TEST(RollingHash, DirectHashMatchesHornerByHand) {
  // H("ab") = 'a' * base + 'b' mod p, small enough to check by hand.
  const std::uint8_t ab[] = {'a', 'b'};
  EXPECT_EQ(kr_hash(ab), kr_add(kr_mul('a', kKarpRabinBase), 'b'));
  EXPECT_EQ(kr_hash(std::span<const std::uint8_t>{}), 0u);
}

TEST(RollingHash, ModularArithmeticStaysInRange) {
  EXPECT_EQ(kr_mod(kKarpRabinPrime), 0u);
  EXPECT_EQ(kr_mod(kKarpRabinPrime + 5), 5u);
  EXPECT_EQ(kr_sub(3, 5), kKarpRabinPrime - 2);
  EXPECT_EQ(kr_add(kKarpRabinPrime - 1, 1), 0u);
  // kr_mul of maximal residues must not overflow or exceed the modulus.
  const std::uint64_t big = kKarpRabinPrime - 1;
  EXPECT_LT(kr_mul(big, big), kKarpRabinPrime);
}

TEST(RollingHash, PowMatchesRepeatedMultiplication) {
  std::uint64_t acc = 1;
  for (std::uint64_t e = 0; e < 70; ++e) {
    EXPECT_EQ(kr_pow(kKarpRabinBase, e), acc) << "exponent " << e;
    acc = kr_mul(acc, kKarpRabinBase);
  }
  EXPECT_EQ(kr_pow(0, 0), 1u);  // convention: x^0 == 1
}

TEST(RollingHash, RollEqualsDirectHashAtEveryOffset) {
  // The core property, deterministic case: slide a 16-byte window over a
  // fixed string and compare against kr_hash of the window at each offset.
  const std::size_t width = 16;
  const std::vector<std::uint8_t> bytes = random_bytes(512, /*seed=*/42);
  KarpRabinWindow window(width);
  for (std::size_t i = 0; i < width; ++i) window.push(bytes[i]);
  ASSERT_TRUE(window.full());
  for (std::size_t start = 0;; ++start) {
    const auto view =
        std::span<const std::uint8_t>(bytes).subspan(start, width);
    ASSERT_EQ(window.hash(), kr_hash(view)) << "offset " << start;
    if (start + width >= bytes.size()) break;
    window.roll(bytes[start], bytes[start + width]);
  }
}

TEST(fuzz_rolling, RollEqualsDirectHashForRandomWidthsAndBases) {
  // Property sweep: random strings, widths, and polynomial bases; the
  // incremental roll must equal the direct evaluation at every offset.
  const std::uint64_t base_seed = env_u64("CDC_FUZZ_BASE_SEED", 1);
  const std::uint64_t num_seeds = env_u64("CDC_FUZZ_SEEDS", 64);
  for (std::uint64_t s = 0; s < num_seeds; ++s) {
    const std::uint64_t seed = base_seed + s;
    support::Xoshiro256 rng(seed * 0x5851f42d4c957f2dull + 1);
    const std::size_t width = 1 + rng.bounded(48);
    const std::uint64_t base = 2 + rng.bounded(1u << 20);
    const std::size_t len = width + rng.bounded(384);
    const std::vector<std::uint8_t> bytes = random_bytes(len, seed);

    KarpRabinWindow window(width, base);
    for (std::size_t i = 0; i < width; ++i) window.push(bytes[i]);
    for (std::size_t start = 0;; ++start) {
      const auto view =
          std::span<const std::uint8_t>(bytes).subspan(start, width);
      ASSERT_EQ(window.hash(), kr_hash(view, base))
          << "seed=" << seed << " width=" << width << " base=" << base
          << " offset=" << start;
      if (start + width >= bytes.size()) break;
      window.roll(bytes[start], bytes[start + width]);
    }
  }
}

TEST(fuzz_rolling, ResetRestartsTheWindowCleanly) {
  const std::uint64_t seed = env_u64("CDC_FUZZ_BASE_SEED", 1);
  const std::vector<std::uint8_t> bytes = random_bytes(64, seed);
  KarpRabinWindow window(8);
  for (std::size_t i = 0; i < 8; ++i) window.push(bytes[i]);
  const std::uint64_t first = window.hash();
  window.reset();
  EXPECT_FALSE(window.full());
  for (std::size_t i = 0; i < 8; ++i) window.push(bytes[i]);
  EXPECT_TRUE(window.full());
  EXPECT_EQ(window.hash(), first);
}

TEST(RollingHash, DifferentBasesDisagreeOnTheSameContent) {
  // Two independent bases are what make ChunkId a 122-bit key; they must
  // not be trivially correlated.
  const std::vector<std::uint8_t> bytes = random_bytes(128, 7);
  EXPECT_NE(kr_hash(bytes, 263), kr_hash(bytes, 1000003));
}

}  // namespace
}  // namespace cdc::corpus
