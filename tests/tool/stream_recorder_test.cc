#include "tool/stream_recorder.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "obs/metrics.h"
#include "record/epoch.h"
#include "record/event.h"
#include "support/rng.h"
#include "tool/frame.h"

namespace cdc::tool {
namespace {

record::ReceiveEvent matched(std::int32_t sender, std::uint64_t clk) {
  return {true, false, sender, clk};
}

ToolOptions options_with(RecordCodec codec, std::size_t chunk_target = 4) {
  ToolOptions o;
  o.codec = codec;
  o.chunk_target = chunk_target;
  return o;
}

TEST(StreamRecorder, NoFlushBelowChunkTarget) {
  runtime::MemoryStore store;
  StreamRecorder rec({0, 1}, options_with(RecordCodec::kCdcFull, 10));
  for (std::uint64_t c = 1; c <= 5; ++c) rec.on_delivered(matched(0, c));
  rec.flush_if_due(store);
  EXPECT_EQ(store.total_bytes(), 0u);
  rec.finalize(store);
  EXPECT_GT(store.total_bytes(), 0u);
  EXPECT_EQ(rec.stats().chunks, 1u);
}

TEST(StreamRecorder, FlushesAtChunkTarget) {
  runtime::MemoryStore store;
  StreamRecorder rec({0, 1}, options_with(RecordCodec::kCdcFull, 4));
  for (std::uint64_t c = 1; c <= 4; ++c) rec.on_delivered(matched(0, c));
  rec.flush_if_due(store);
  EXPECT_GT(store.total_bytes(), 0u);
  EXPECT_EQ(rec.stats().chunks, 1u);
}

TEST(StreamRecorder, PendingMessageDefersFlush) {
  runtime::MemoryStore store;
  StreamRecorder rec({0, 1}, options_with(RecordCodec::kCdcFull, 2));
  // A message from sender 0 with clock 1 has been sighted but not
  // delivered; flushing events with larger clocks from sender 0 would
  // break the epoch invariant.
  rec.on_candidate({0, 1});
  rec.on_delivered(matched(0, 5));
  rec.on_delivered(matched(0, 6));
  rec.flush_if_due(store);
  EXPECT_EQ(store.total_bytes(), 0u);  // deferred: no clean cut

  // Delivering the pending message unblocks the cut.
  rec.on_delivered(matched(0, 1));
  // (0,1) was delivered AFTER (0,5): the inversion forces them into one
  // chunk, which finalize produces.
  rec.finalize(store);
  EXPECT_GT(store.total_bytes(), 0u);
}

TEST(StreamRecorder, OtherSendersPendingDoesNotDefer) {
  runtime::MemoryStore store;
  StreamRecorder rec({0, 1}, options_with(RecordCodec::kCdcFull, 2));
  rec.on_candidate({7, 1});  // pending from an unrelated sender
  rec.on_delivered(matched(0, 5));
  rec.on_delivered(matched(0, 6));
  rec.flush_if_due(store);
  EXPECT_GT(store.total_bytes(), 0u);
}

TEST(StreamRecorder, OutOfOrderDeliveriesErasePendingFromTheMiddle) {
  runtime::MemoryStore store;
  StreamRecorder rec({0, 1}, options_with(RecordCodec::kCdcFull, 3));
  for (std::uint64_t c = 1; c <= 4; ++c) rec.on_candidate({0, c});
  // (0,3) and (0,2) leave the middle of sender 0's pending run; (0,1) is
  // still pending, so no cut through sender 0's events is clean.
  rec.on_delivered(matched(0, 3));
  rec.on_delivered(matched(0, 2));
  rec.on_delivered(matched(7, 1));
  rec.flush_if_due(store);
  EXPECT_EQ(rec.stats().chunks, 0u);
  EXPECT_EQ(store.total_bytes(), 0u);

  rec.on_delivered(matched(0, 1));
  rec.on_delivered(matched(0, 4));
  rec.finalize(store);
  EXPECT_EQ(rec.stats().chunks, 1u);
  EXPECT_EQ(rec.stats().matched_events, 5u);
}

TEST(StreamRecorder, NeverSightedDeliveryLeavesPendingUntouched) {
  runtime::MemoryStore store;
  StreamRecorder rec({0, 1}, options_with(RecordCodec::kCdcFull, 1));
  rec.on_candidate({0, 5});
  // (0,7) and (3,1) were never sighted: (0,5) stays pending and defers
  // every cut that takes (0,7).
  rec.on_delivered(matched(3, 1));
  rec.flush_if_due(store);
  EXPECT_EQ(rec.stats().chunks, 1u);  // sender 3 has nothing pending
  rec.on_delivered(matched(0, 7));
  rec.flush_if_due(store);
  EXPECT_EQ(rec.stats().chunks, 1u);
  rec.on_delivered(matched(0, 5));
  rec.finalize(store);
  EXPECT_EQ(rec.stats().chunks, 2u);
}

// The flush decisions of random sight/deliver sequences against a model
// that keeps each sender's pending clocks in an ordered set.
TEST(StreamRecorder, FlushDecisionsMatchOrderedSetModel) {
  support::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint64_t senders = trial % 2 == 0 ? 4 : 64;
    const std::size_t target = 1 + rng.bounded(6);
    runtime::MemoryStore store;
    StreamRecorder rec({0, 1}, options_with(RecordCodec::kCdcFull, target));

    std::map<std::int32_t, std::set<std::uint64_t>> pending;
    std::vector<record::ReceiveEvent> buffer;
    std::size_t buffered_matched = 0;
    std::uint64_t chunks = 0;
    std::vector<std::uint64_t> next_clock(senders, 0);
    std::vector<clock::MessageId> undelivered;

    for (int step = 0; step < 300; ++step) {
      const std::uint64_t op = rng.bounded(10);
      const auto sender = static_cast<std::int32_t>(rng.bounded(senders));
      if (op < 4) {  // a new sighting, sometimes followed by a re-sighting
        const clock::MessageId id{
            sender, next_clock[static_cast<std::size_t>(sender)] +=
                    1 + rng.bounded(3)};
        rec.on_candidate(id);
        if (rng.bounded(2) == 0) rec.on_candidate(id);
        pending[sender].insert(id.clock);
        undelivered.push_back(id);
      } else if (op < 8 && !undelivered.empty()) {  // any sighted message
        const std::size_t i = rng.bounded(undelivered.size());
        const clock::MessageId id = undelivered[i];
        undelivered.erase(undelivered.begin() + static_cast<long>(i));
        rec.on_delivered(matched(id.sender, id.clock));
        pending[id.sender].erase(id.clock);
        buffer.push_back(matched(id.sender, id.clock));
        ++buffered_matched;
      } else if (op < 9) {  // a message that was never sighted
        const std::uint64_t clk =
            next_clock[static_cast<std::size_t>(sender)] += 1 + rng.bounded(3);
        rec.on_delivered(matched(sender, clk));
        buffer.push_back(matched(sender, clk));
        ++buffered_matched;
      } else {
        rec.on_unmatched_test();
        buffer.push_back({false, false, -1, 0});
      }
      rec.flush_if_due(store);

      if (buffered_matched >= target) {
        record::PendingMins mins;
        for (const auto& [s, clocks] : pending)
          if (!clocks.empty()) mins.emplace(s, *clocks.begin());
        while (true) {
          const std::size_t cut = record::find_clean_cut(buffer, mins, target);
          if (cut == 0) break;
          record::take_cut(buffer, cut);
          buffered_matched -= cut;
          ++chunks;
          if (buffered_matched < target) break;
        }
      }
      ASSERT_EQ(rec.stats().chunks, chunks)
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(StreamRecorder, StatsCountEventsAndValues) {
  runtime::MemoryStore store;
  StreamRecorder rec({0, 1}, options_with(RecordCodec::kCdcFull, 100));
  rec.on_unmatched_test();
  rec.on_unmatched_test();
  rec.on_delivered(matched(1, 3));
  rec.on_delivered(matched(2, 9));
  rec.finalize(store);
  EXPECT_EQ(rec.stats().matched_events, 2u);
  EXPECT_EQ(rec.stats().unmatched_events, 2u);
  EXPECT_EQ(rec.stats().chunks, 1u);
  EXPECT_GT(rec.stats().stored_values, 0u);
}

TEST(StreamRecorder, LpStageCountsTheValuesItWrites) {
  // LP writes what PE stored, so on a CDC record the two stages' value
  // counters rise together.
  if (!obs::compiled_in()) GTEST_SKIP() << "obs compiled out";
  obs::set_enabled(true);
  obs::Counter& lp = obs::counter("record.stage.lp.values");
  obs::Counter& pe = obs::counter("record.stage.pe.values");
  const std::uint64_t lp_before = lp.value();
  const std::uint64_t pe_before = pe.value();

  runtime::MemoryStore store;
  StreamRecorder rec({0, 1}, options_with(RecordCodec::kCdcFull, 8));
  for (std::uint64_t c = 1; c <= 40; ++c) {
    if (c % 7 == 0) rec.on_unmatched_test();
    rec.on_delivered(matched(static_cast<std::int32_t>(c % 3), c * 2));
  }
  rec.finalize(store);
  EXPECT_GT(pe.value() - pe_before, 0u);
  EXPECT_EQ(lp.value() - lp_before, pe.value() - pe_before);
}

class CodecFrames : public ::testing::TestWithParam<RecordCodec> {};

TEST_P(CodecFrames, ProducesParsableFrames) {
  runtime::MemoryStore store;
  StreamRecorder rec({2, 3}, options_with(GetParam(), 8));
  for (std::uint64_t c = 1; c <= 20; ++c) {
    if (c % 5 == 0) rec.on_unmatched_test();
    rec.on_delivered(matched(static_cast<std::int32_t>(c % 3), c * 2));
  }
  rec.finalize(store);
  const auto bytes = store.read({2, 3});
  ASSERT_FALSE(bytes.empty());

  support::ByteReader reader(bytes);
  std::size_t frames = 0;
  while (auto frame = read_frame(reader)) {
    EXPECT_EQ(frame->codec, static_cast<std::uint8_t>(GetParam()));
    ++frames;
  }
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(frames, rec.stats().chunks);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecFrames,
                         ::testing::Values(RecordCodec::kBaselineRaw,
                                           RecordCodec::kBaselineGzip,
                                           RecordCodec::kCdcRe,
                                           RecordCodec::kCdcFull),
                         [](const auto& info) {
                           switch (info.param) {
                             case RecordCodec::kBaselineRaw: return "Raw";
                             case RecordCodec::kBaselineGzip: return "Gzip";
                             case RecordCodec::kCdcRe: return "CdcRe";
                             case RecordCodec::kCdcFull: return "CdcFull";
                           }
                           return "?";
                         });

TEST(StreamRecorder, CdcSmallerThanBaselineOnOrderedStream) {
  // A reference-ordered stream: CDC stores almost nothing per event while
  // the baseline stores 162 bits per row.
  runtime::MemoryStore store_raw;
  runtime::MemoryStore store_cdc;
  StreamRecorder raw({0, 0}, options_with(RecordCodec::kBaselineRaw, 1000));
  StreamRecorder cdc({0, 0}, options_with(RecordCodec::kCdcFull, 1000));
  for (std::uint64_t c = 1; c <= 1000; ++c) {
    raw.on_delivered(matched(static_cast<std::int32_t>(c % 4), c * 3));
    cdc.on_delivered(matched(static_cast<std::int32_t>(c % 4), c * 3));
  }
  raw.finalize(store_raw);
  cdc.finalize(store_cdc);
  EXPECT_GT(store_raw.total_bytes(), 20u * store_cdc.total_bytes());
}

}  // namespace
}  // namespace cdc::tool
