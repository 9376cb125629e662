#include "obs/stats.h"

#include <gtest/gtest.h>

namespace cdc::obs {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Histogram, BucketsAndClamping) {
  FixedHistogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-3.0);   // clamps to first bucket
  h.add(100.0);  // clamps to last bucket
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[9], 2u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_width(), 1.0);
}

TEST(Histogram, BoundaryFallsInUpperBucket) {
  FixedHistogram h(0.0, 10.0, 10);
  h.add(1.0);
  EXPECT_EQ(h.counts()[1], 1u);
}

TEST(FormatBytes, HumanUnits) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(1500), "1.50 KB");
  EXPECT_EQ(format_bytes(197.0e6), "197.00 MB");
  EXPECT_EQ(format_bytes(2.5e9), "2.50 GB");
}

}  // namespace
}  // namespace cdc::obs
