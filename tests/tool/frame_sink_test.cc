#include "tool/frame_sink.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "runtime/storage.h"
#include "support/binary.h"

namespace cdc::tool {
namespace {

TEST(InlineFrameSink, ScratchReuseMakesSteadyStateEncodingAllocationFree) {
  // 1000 small frames through one sink: only the very first encode finds
  // the scratch buffer empty; every later one reuses its capacity. The
  // store.pool counters are the allocation audit — a regression that
  // drops the buffer instead of recycling it shows up as misses.
  if (!obs::compiled_in()) GTEST_SKIP() << "obs compiled out";
  obs::set_enabled(true);
  obs::Counter& hits = obs::counter("store.pool.hits");
  obs::Counter& misses = obs::counter("store.pool.misses");
  obs::Counter& recycled = obs::counter("store.pool.recycled_bytes");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();
  const std::uint64_t recycled_before = recycled.value();

  runtime::MemoryStore store;
  InlineFrameSink sink(&store);
  support::ByteWriter expected;
  constexpr std::uint64_t kJobs = 1000;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    FrameJob job;
    job.meta = i;
    job.payload.assign(96, static_cast<std::uint8_t>(i % 5));
    expected.bytes(encode_frame(job));
    sink.submit({0, 0}, std::move(job));
  }

  EXPECT_EQ(misses.value() - misses_before, 1u);
  EXPECT_EQ(hits.value() - hits_before, kJobs - 1);
  EXPECT_GT(recycled.value() - recycled_before, 0u);
  // Reuse changes allocations only: the stream is every frame's
  // encode_frame bytes, in submission order.
  const std::span<const std::uint8_t> want = expected.view();
  EXPECT_EQ(store.read({0, 0}),
            std::vector<std::uint8_t>(want.begin(), want.end()));
}

}  // namespace
}  // namespace cdc::tool
