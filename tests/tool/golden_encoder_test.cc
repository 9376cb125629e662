// Golden bytes of the record encoder: three seeded event streams go through
// StreamRecorder -> InlineFrameSink -> MemoryStore, and the FNV-1a of each
// stored stream is pinned. The encode kernels (clean-cut search, reference
// order, permutation encoding, LP writers) may be rewritten for speed, but
// every sealed byte must stay the same: a changed hash here means the record
// format drifted.
//
// The streams draw only from Xoshiro256::bounded, so the pinned values do
// not depend on the platform's libm (simulated runs are not pinned: their
// latencies go through log1p).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "../record/figure4.h"
#include "runtime/storage.h"
#include "support/rng.h"
#include "tool/frame_sink.h"
#include "tool/stream_recorder.h"

namespace cdc::tool {
namespace {

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

ToolOptions cdc_options(std::size_t chunk_target) {
  ToolOptions o;
  o.codec = RecordCodec::kCdcFull;
  o.chunk_target = chunk_target;
  return o;
}

/// Drives a recorder the way the interception layer does. Messages from
/// `senders` senders arrive (and are sighted) ahead of delivery, up to
/// `lookahead` of them, carrying Lamport-like clocks: a shared clock that
/// advances by 0 or 1 per arrival, kept strictly increasing per sender, so
/// clocks tie across senders and a busy sender runs ahead of the others.
/// Each step delivers from the front of the arrival queue, swapping the
/// first two about 30% of the time, sometimes as a with_next group of two
/// or three, with runs of unmatched tests in between. Now and then the
/// front message is held back for up to 300 deliveries, which leaves a
/// long inversion and a pending sighting behind it. One longer hold
/// starts `tail` deliveries before the end and lasts past a whole chunk:
/// while it pends, no clean cut of at most `chunk_target` matched events
/// exists, so every later due flush defers and finalize seals the tail.
struct DriveResult {
  std::uint64_t hash = 0;
  StreamRecorder::Stats stats;
  std::size_t deferred = 0;  ///< due flushes that sealed no chunk
};

DriveResult drive(std::uint64_t seed, std::int32_t senders,
                  std::size_t deliveries, std::size_t lookahead,
                  std::size_t chunk_target, std::size_t tail) {
  support::Xoshiro256 rng(seed);
  runtime::MemoryStore store;
  InlineFrameSink sink(&store);
  const runtime::StreamKey key{0, 1};
  StreamRecorder rec(key, cdc_options(chunk_target));

  std::vector<std::uint64_t> last(static_cast<std::size_t>(senders), 0);
  std::uint64_t now = 1;
  std::deque<clock::MessageId> arrived;
  const auto arrive = [&] {
    const auto s = static_cast<std::int32_t>(
        rng.bounded(static_cast<std::uint64_t>(senders)));
    now += rng.bounded(2);
    std::uint64_t& c = last[static_cast<std::size_t>(s)];
    c = std::max(now, c + 1);
    arrived.push_back({s, c});
    rec.on_candidate({s, c});
  };

  std::size_t delivered = 0;
  std::size_t deferred = 0;
  bool holding = false;
  clock::MessageId held;
  std::size_t release_at = 0;
  const auto deliver = [&](clock::MessageId id, bool with_next) {
    rec.on_delivered({true, with_next, id.sender, id.clock});
    ++delivered;
  };
  while (delivered < deliveries) {
    while (arrived.size() < lookahead) arrive();
    const bool tail_hold = delivered + tail == deliveries;
    if (holding && delivered >= release_at) {
      deliver(held, false);
      holding = false;
    } else if (!holding && (rng.bounded(1000) == 0 || tail_hold)) {
      holding = true;
      held = arrived.front();
      arrived.pop_front();
      release_at =
          delivered + (tail_hold ? tail - tail / 8 : 20 + rng.bounded(280));
    }
    if (rng.bounded(10) < 2) {
      const std::uint64_t tests = 1 + rng.bounded(4);
      for (std::uint64_t t = 0; t < tests; ++t) rec.on_unmatched_test();
    }
    if (arrived.size() >= 2 && rng.bounded(10) < 3)
      std::swap(arrived[0], arrived[1]);
    const std::size_t group = rng.bounded(8) == 0 ? 2 + rng.bounded(2) : 1;
    for (std::size_t g = 0; g < group; ++g) {
      const clock::MessageId id = arrived.front();
      arrived.pop_front();
      deliver(id, g + 1 < group);
    }
    const std::uint64_t chunks = rec.stats().chunks;
    const bool due = rec.due();
    rec.flush_if_due(sink);
    if (due && rec.stats().chunks == chunks) ++deferred;
  }
  if (holding) deliver(held, false);
  rec.finalize(sink);
  return {fnv1a(store.read(key)), rec.stats(), deferred};
}

TEST(GoldenEncoderBytes, McbDeepLikeStream) {
  const DriveResult r = drive(/*seed=*/2026, /*senders=*/4,
                              /*deliveries=*/15000, /*lookahead=*/24,
                              /*chunk_target=*/512, /*tail=*/1200);
  // The stream exercises what the kernels must get right: moves,
  // unmatched runs, many chunks, and cuts deferred by a pending sighting.
  EXPECT_GT(r.stats.moves, 1000u);
  EXPECT_GT(r.stats.unmatched_events, 1000u);
  EXPECT_GE(r.stats.chunks, 20u);
  EXPECT_GT(r.deferred, 0u);
  EXPECT_EQ(r.hash, 0x83fe86c538c7dd29ull);
}

TEST(GoldenEncoderBytes, McbWideLikeStream) {
  const DriveResult r = drive(/*seed=*/768, /*senders=*/768,
                              /*deliveries=*/130, /*lookahead=*/8,
                              /*chunk_target=*/4096, /*tail=*/0);
  EXPECT_EQ(r.stats.chunks, 1u);
  EXPECT_GT(r.stats.moves, 0u);
  EXPECT_EQ(r.hash, 0x23dd19e56ea7023cull);
}

TEST(GoldenEncoderBytes, Figure4WorkedExample) {
  runtime::MemoryStore store;
  InlineFrameSink sink(&store);
  const runtime::StreamKey key{0, 1};
  StreamRecorder rec(key, cdc_options(4));
  for (const record::ReceiveEvent& e : record::testing::figure4_events()) {
    if (e.flag) {
      rec.on_delivered(e);
    } else {
      rec.on_unmatched_test();
    }
    rec.flush_if_due(sink);
  }
  rec.finalize(sink);
  EXPECT_EQ(fnv1a(store.read(key)), 0x035556d54a803448ull);
}

}  // namespace
}  // namespace cdc::tool
