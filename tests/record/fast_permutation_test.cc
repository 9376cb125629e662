#include "record/fast_permutation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "support/rng.h"

namespace cdc::record {
namespace {

std::vector<std::uint32_t> identity(std::size_t n) {
  std::vector<std::uint32_t> v(n);
  std::iota(v.begin(), v.end(), 0u);
  return v;
}

std::vector<std::uint32_t> random_permutation(std::size_t n,
                                              support::Xoshiro256& rng) {
  auto b = identity(n);
  for (std::size_t i = n; i > 1; --i) std::swap(b[i - 1], b[rng.bounded(i)]);
  return b;
}

TEST(WorkingList, BasicOperations) {
  detail::WorkingList list(5);
  EXPECT_EQ(list.to_vector(), identity(5));

  EXPECT_EQ(list.erase(1), 1u);
  EXPECT_EQ(list.to_vector(), (std::vector<std::uint32_t>{0, 2, 3, 4}));

  list.insert_at(0, 1);
  EXPECT_EQ(list.to_vector(), (std::vector<std::uint32_t>{1, 0, 2, 3, 4}));

  EXPECT_EQ(list.erase(4), 4u);
  list.insert_at(2, 4);
  EXPECT_EQ(list.to_vector(), (std::vector<std::uint32_t>{1, 0, 4, 2, 3}));
}

TEST(WorkingList, SingleElementAndEmpty) {
  detail::WorkingList one(1);
  EXPECT_EQ(one.erase(0), 0u);
  EXPECT_EQ(one.size(), 0u);
  one.insert_at(0, 0);
  EXPECT_EQ(one.to_vector(), (std::vector<std::uint32_t>{0}));

  detail::WorkingList empty(0);
  EXPECT_TRUE(empty.to_vector().empty());
}

TEST(WorkingList, RandomOpsAgreeWithVector) {
  support::Xoshiro256 rng(4);
  constexpr std::size_t kN = 200;
  detail::WorkingList list(kN);
  std::vector<std::uint32_t> mirror = identity(kN);
  for (int step = 0; step < 2000; ++step) {
    const std::uint32_t value =
        mirror[rng.bounded(mirror.size())];
    const std::size_t expected_pos = static_cast<std::size_t>(
        std::find(mirror.begin(), mirror.end(), value) - mirror.begin());
    ASSERT_EQ(list.erase(value), expected_pos);
    mirror.erase(mirror.begin() + static_cast<long>(expected_pos));
    const std::size_t target = rng.bounded(mirror.size() + 1);
    list.insert_at(target, value);
    mirror.insert(mirror.begin() + static_cast<long>(target), value);
  }
  EXPECT_EQ(list.to_vector(), mirror);
}

// --- Block boundaries -------------------------------------------------------

constexpr std::size_t kCapacity = detail::WorkingList::kBlockCapacity;

/// Checks every position, the size and the order against a vector.
void expect_agrees(const detail::WorkingList& list,
                   const std::vector<std::uint32_t>& mirror) {
  ASSERT_EQ(list.size(), mirror.size());
  ASSERT_EQ(list.to_vector(), mirror);
  // Erasing from the back leaves every earlier element where it was, so
  // each erase reports that element's position.
  detail::WorkingList copy = list;
  for (std::size_t i = mirror.size(); i-- > 0;)
    ASSERT_EQ(copy.erase(mirror[i]), i) << "value " << mirror[i];
}

/// Moves `value` to `target` in both the list and its mirror.
void move_to(detail::WorkingList& list, std::vector<std::uint32_t>& mirror,
             std::uint32_t value, std::size_t target) {
  const auto it = std::find(mirror.begin(), mirror.end(), value);
  const auto expected = static_cast<std::size_t>(it - mirror.begin());
  ASSERT_EQ(list.erase(value), expected);
  mirror.erase(it);
  list.insert_at(target, value);
  mirror.insert(mirror.begin() + static_cast<long>(target), value);
}

TEST(WorkingListBlocks, EmptyAndSingleton) {
  detail::WorkingList empty(0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.to_vector().empty());

  detail::WorkingList one(1);
  std::vector<std::uint32_t> mirror = identity(1);
  expect_agrees(one, mirror);
  EXPECT_EQ(one.erase(0), 0u);
  EXPECT_EQ(one.size(), 0u);
  EXPECT_TRUE(one.to_vector().empty());
  one.insert_at(0, 0);
  expect_agrees(one, mirror);
}

TEST(WorkingListBlocks, SizesAroundBlockCapacity) {
  for (const std::size_t n :
       {kCapacity / 2 - 1, kCapacity / 2, kCapacity / 2 + 1, kCapacity - 1,
        kCapacity, kCapacity + 1, 2 * kCapacity + 1}) {
    SCOPED_TRACE(n);
    detail::WorkingList list(n);
    std::vector<std::uint32_t> mirror = identity(n);
    expect_agrees(list, mirror);
    // Across every block: last to the front, first to the back, and the
    // front element to each boundary between initial blocks.
    move_to(list, mirror, static_cast<std::uint32_t>(n - 1), 0);
    move_to(list, mirror, mirror.front(), n - 1);
    for (std::size_t target = kCapacity / 2; target < n;
         target += kCapacity / 2)
      move_to(list, mirror, mirror.front(), target);
    expect_agrees(list, mirror);
  }
}

TEST(WorkingListBlocks, RepeatedInsertAtOnePositionSplitsBlocks) {
  // Every insert lands in the same block, which therefore splits every
  // kCapacity / 2 inserts; the elements come from all over the list.
  constexpr std::size_t kN = 3 * kCapacity;
  detail::WorkingList list(kN);
  std::vector<std::uint32_t> mirror = identity(kN);
  support::Xoshiro256 rng(31);
  for (std::size_t step = 0; step < 4 * kCapacity; ++step) {
    const std::uint32_t value = mirror[rng.bounded(kN)];
    move_to(list, mirror, value, 7);
    ASSERT_EQ(list.to_vector()[7], value);
  }
  expect_agrees(list, mirror);
}

TEST(WorkingListBlocks, EraseEverythingThenReinsert) {
  constexpr std::size_t kN = 2 * kCapacity + 3;
  detail::WorkingList list(kN);
  std::vector<std::uint32_t> mirror = identity(kN);
  support::Xoshiro256 rng(32);
  std::vector<std::uint32_t> erased;
  while (!mirror.empty()) {
    const std::size_t at = rng.bounded(mirror.size());
    ASSERT_EQ(list.erase(mirror[at]), at);
    erased.push_back(mirror[at]);
    mirror.erase(mirror.begin() + static_cast<long>(at));
  }
  expect_agrees(list, mirror);
  for (const std::uint32_t value : erased) {
    const std::size_t target = rng.bounded(mirror.size() + 1);
    list.insert_at(target, value);
    mirror.insert(mirror.begin() + static_cast<long>(target), value);
  }
  expect_agrees(list, mirror);
}

TEST(Fenwick, PrefixAndSelect) {
  detail::Fenwick fenwick(10);
  for (const std::size_t i : {1u, 4u, 7u, 9u}) fenwick.add(i, 1);
  EXPECT_EQ(fenwick.prefix(0), 0);
  EXPECT_EQ(fenwick.prefix(2), 1);
  EXPECT_EQ(fenwick.prefix(5), 2);
  EXPECT_EQ(fenwick.prefix(10), 4);
  EXPECT_EQ(fenwick.select(1), 1u);
  EXPECT_EQ(fenwick.select(2), 4u);
  EXPECT_EQ(fenwick.select(3), 7u);
  EXPECT_EQ(fenwick.select(4), 9u);
}

TEST(FastPermutation, MatchesReferenceOnPaperExample) {
  const std::vector<std::uint32_t> b = {0, 3, 2, 1, 4, 7, 5, 6};
  const auto fast = fast_encode_permutation(b);
  const auto reference = encode_permutation(b);
  EXPECT_EQ(fast, reference);
  EXPECT_EQ(fast_apply_moves(8, fast), b);
}

class FastVsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastVsReference, IdenticalOpsAndRoundTrip) {
  support::Xoshiro256 rng(GetParam());
  for (const std::size_t n : {1u, 2u, 3u, 17u, 64u, 300u, 1500u}) {
    const auto b = random_permutation(n, rng);
    const auto fast = fast_encode_permutation(b);
    const auto reference = encode_permutation(b);
    ASSERT_EQ(fast, reference) << "n=" << n;
    ASSERT_EQ(fast_apply_moves(n, fast), b) << "n=" << n;
    ASSERT_EQ(fast_apply_moves(n, fast), apply_moves(n, fast)) << "n=" << n;
  }
}

TEST_P(FastVsReference, NearSortedInputs) {
  support::Xoshiro256 rng(GetParam() + 77);
  auto b = identity(2000);
  for (int i = 0; i < 200; ++i) {
    const std::size_t j = rng.bounded(b.size() - 1);
    std::swap(b[j], b[j + 1]);
  }
  const auto fast = fast_encode_permutation(b);
  EXPECT_EQ(fast, encode_permutation(b));
  EXPECT_EQ(fast_apply_moves(b.size(), fast), b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastVsReference,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

TEST(FastPermutation, LargeReversalStress) {
  auto b = identity(50000);
  std::reverse(b.begin(), b.end());
  const auto ops = fast_encode_permutation(b);
  EXPECT_EQ(ops.size(), b.size() - 1);
  EXPECT_EQ(fast_apply_moves(b.size(), ops), b);
}

TEST(FastPermutation, IdentityIsFree) {
  const auto b = identity(10000);
  EXPECT_TRUE(fast_encode_permutation(b).empty());
}

}  // namespace
}  // namespace cdc::record
