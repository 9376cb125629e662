#include "support/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace cdc::support {
namespace {

TEST(Splitmix64, PinsTheFinalizerAndXoshiroSeeding) {
  // The reference splitmix64 generator seeded with 0 returns these first,
  // and every seed derivation and golden digest in the repository rests
  // on them and on Xoshiro256's seeding through splitmix64.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state += kGoldenGamma), 0xe220a8397b1dcdafull);
  EXPECT_EQ(splitmix64(state += kGoldenGamma), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(splitmix64(state += kGoldenGamma), 0x06c45d188009454full);
  EXPECT_EQ(splitmix64(42 + kGoldenGamma), 0xbdd732262feb6e95ull);

  Xoshiro256 zero(0);
  EXPECT_EQ(zero(), 0x99ec5f36cb75f2b4ull);
  EXPECT_EQ(zero(), 0xbf6e1f784956452aull);
  EXPECT_EQ(zero(), 0x1a5f849d4933e6e0ull);
  Xoshiro256 fortytwo(42);
  EXPECT_EQ(fortytwo(), 0x15780b2e0c2ec716ull);
  EXPECT_EQ(fortytwo(), 0x6104d9866d113a7eull);
  EXPECT_EQ(fortytwo(), 0xae17533239e499a1ull);
  Xoshiro256 defaulted;
  EXPECT_EQ(defaulted(), 0x422ea740d0977210ull);
  EXPECT_EQ(defaulted(), 0xe062b061b42e2928ull);
}

TEST(Xoshiro, SameSeedSameStream) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i)
    if (a() != b()) ++differing;
  EXPECT_GT(differing, 90);
}

TEST(Xoshiro, BoundedStaysInRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(7), 7u);
  }
  EXPECT_EQ(rng.bounded(1), 0u);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Xoshiro, BoundedCoversAllResidues) {
  Xoshiro256 rng(6);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) ++seen[rng.bounded(10)];
  for (const int count : seen) EXPECT_GT(count, 0);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 rng(9);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Xoshiro, ExponentialHasRequestedMean) {
  Xoshiro256 rng(10);
  const double mean = 3.5;
  double sum = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.exponential(mean);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kSamples, mean, 0.05 * mean);
}

}  // namespace
}  // namespace cdc::support
