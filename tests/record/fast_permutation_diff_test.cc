// Differential test pinning the fast permutation engine (blocked list +
// Fenwick, fast_permutation.h) against the reference implementations
// (edit_distance.h): 1000 random permutations per shape class, plus the
// structured adversaries (identity, reversal, rotations, block swaps)
// where the two engines' tie-breaking is most likely to drift apart.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "record/edit_distance.h"
#include "record/fast_permutation.h"
#include "support/rng.h"

namespace cdc::record {
namespace {

std::uint64_t base_seed() {
  const char* value = std::getenv("CDC_FUZZ_BASE_SEED");
  return value != nullptr ? std::strtoull(value, nullptr, 10) : 1;
}

std::vector<std::uint32_t> identity(std::size_t n) {
  std::vector<std::uint32_t> b(n);
  std::iota(b.begin(), b.end(), 0u);
  return b;
}

std::vector<std::uint32_t> shuffled(support::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint32_t> b = identity(n);
  for (std::size_t i = n; i > 1; --i)
    std::swap(b[i - 1], b[rng.bounded(i)]);
  return b;
}

/// Identity with a fraction of adjacent-ish transpositions — the
/// near-sorted regime real MPI receive orders live in (Figure 14 reports
/// low permutation percentages), where LIS is long and D is small.
std::vector<std::uint32_t> nearly_sorted(support::Xoshiro256& rng,
                                         std::size_t n, double swap_rate) {
  std::vector<std::uint32_t> b = identity(n);
  const std::size_t swaps =
      static_cast<std::size_t>(static_cast<double>(n) * swap_rate) + 1;
  for (std::size_t s = 0; s < swaps && n > 1; ++s) {
    const std::size_t i = rng.bounded(n - 1);
    const std::size_t span = 1 + rng.bounded(3);
    std::swap(b[i], b[std::min(i + span, n - 1)]);
  }
  return b;
}

/// Asserts every cross-engine agreement for one permutation.
void check_one(const std::vector<std::uint32_t>& b) {
  const std::vector<MoveOp> reference = encode_permutation(b);
  const std::vector<MoveOp> fast = fast_encode_permutation(b);
  ASSERT_EQ(fast, reference) << "engines emitted different move ops, n="
                             << b.size();

  // Minimality: |ops| = N - LIS, and the banded walk agrees with the O(N^2)
  // dynamic program: D = 2 * |ops|.
  const std::size_t banded = banded_edit_distance(b);
  ASSERT_EQ(banded, dp_edit_distance(b)) << "n=" << b.size();
  ASSERT_EQ(banded, 2 * reference.size()) << "n=" << b.size();

  // Both decoders rebuild the observed order from either engine's ops.
  ASSERT_EQ(apply_moves(b.size(), reference), b);
  ASSERT_EQ(fast_apply_moves(b.size(), fast), b);
  ASSERT_EQ(fast_apply_moves(b.size(), reference), b);
}

TEST(fuzz_permutation_diff, OneThousandRandomPermutations) {
  support::Xoshiro256 rng(base_seed() * 41);
  constexpr std::size_t kSizes[] = {0, 1, 2, 3, 5, 8, 13, 33, 150};
  int cases = 0;
  while (cases < 1000)
    for (const std::size_t n : kSizes) {
      check_one(shuffled(rng, n));
      ++cases;
    }
}

TEST(fuzz_permutation_diff, NearlySortedPermutations) {
  // The regime the banded O(N + D) walk is optimized for; also where a
  // LIS tie-break bug would produce a valid-but-different move set.
  support::Xoshiro256 rng(base_seed() * 43);
  for (const double rate : {0.01, 0.05, 0.25})
    for (int s = 0; s < 40; ++s) check_one(nearly_sorted(rng, 500, rate));
}

TEST(fuzz_permutation_diff, StructuredAdversaries) {
  for (const std::size_t n : {1u, 2u, 7u, 64u, 301u}) {
    check_one(identity(n));                      // D = 0
    std::vector<std::uint32_t> reversed = identity(n);
    std::reverse(reversed.begin(), reversed.end());
    check_one(reversed);                         // LIS = 1, worst case
    std::vector<std::uint32_t> rotated = identity(n);
    std::rotate(rotated.begin(),
                rotated.begin() + static_cast<std::ptrdiff_t>(n / 2),
                rotated.end());
    check_one(rotated);                          // two runs
    std::vector<std::uint32_t> interleaved;      // evens then odds
    for (std::size_t i = 0; i < n; i += 2)
      interleaved.push_back(static_cast<std::uint32_t>(i));
    for (std::size_t i = 1; i < n; i += 2)
      interleaved.push_back(static_cast<std::uint32_t>(i));
    check_one(interleaved);
  }
}

TEST(fuzz_permutation_diff, LargePermutationStaysExact) {
  // One big instance, spanning many blocks and block splits, sized so the
  // O(N^2) dp reference is still tolerable.
  support::Xoshiro256 rng(base_seed() * 47);
  check_one(shuffled(rng, 2000));
  check_one(nearly_sorted(rng, 2000, 0.02));
}

}  // namespace
}  // namespace cdc::record
