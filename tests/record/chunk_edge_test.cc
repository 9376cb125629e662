// Edge cases of the CDC chunk format: sender-column bit widths, clock
// ties, degenerate chunks, crafted tables and move delays.
#include <gtest/gtest.h>

#include <limits>

#include "record/chunk.h"
#include "support/rng.h"

namespace cdc::record {
namespace {

CdcChunk roundtrip(const CdcChunk& chunk) {
  support::ByteWriter writer;
  write_chunk(writer, chunk);
  support::ByteReader reader(writer.view());
  const auto parsed = read_chunk(reader);
  EXPECT_TRUE(parsed.has_value());
  EXPECT_TRUE(reader.exhausted());
  return parsed.value_or(CdcChunk{});
}

TEST(ChunkEdge, SingleSenderColumnCostsZeroBits) {
  // One sender: the sender column packs to zero bits per entry.
  std::vector<ReceiveEvent> events;
  for (std::uint64_t c = 1; c <= 100; ++c)
    events.push_back({true, false, 5, c});
  const auto tables = build_tables(events);
  const auto chunk = encode_chunk(tables);
  ASSERT_EQ(chunk.epoch.size(), 1u);

  support::ByteWriter with_senders;
  write_chunk(with_senders, chunk);
  // 100 events, no moves, no with_next, no unmatched: the serialized
  // chunk is tiny — senders must not cost ~1 byte each.
  EXPECT_LT(with_senders.size(), 32u);
  EXPECT_EQ(roundtrip(chunk), chunk);
}

TEST(ChunkEdge, ManySendersUseWiderCodes) {
  // 300 senders force a 9-bit packed column; round-trip must hold.
  std::vector<ReceiveEvent> events;
  std::uint64_t clk = 1;
  for (int s = 0; s < 300; ++s)
    for (int k = 0; k < 3; ++k)
      events.push_back({true, false, s, clk += 1 + (s * k) % 5});
  const auto chunk = encode_chunk(build_tables(events));
  EXPECT_EQ(chunk.epoch.size(), 300u);
  EXPECT_EQ(roundtrip(chunk), chunk);
}

TEST(ChunkEdge, ClockTiesAcrossSendersBreakByRank) {
  // Several senders share clock values: Definition 6 tie-breaks by rank.
  std::vector<ReceiveEvent> events = {
      {true, false, 2, 10}, {true, false, 0, 10}, {true, false, 1, 10},
  };
  const auto tables = build_tables(events);
  const auto chunk = encode_chunk(tables);
  EXPECT_EQ(chunk.ref_senders, (std::vector<std::int32_t>{0, 1, 2}));
  const auto decoded =
      decode_chunk(roundtrip(chunk), reference_order(tables.matched));
  EXPECT_EQ(decoded, tables);
}

TEST(ChunkEdge, UnmatchedOnlyChunk) {
  std::vector<ReceiveEvent> events(7, ReceiveEvent{false, false, -1, 0});
  const auto chunk = encode_chunk(build_tables(events));
  EXPECT_EQ(chunk.num_matched, 0u);
  EXPECT_TRUE(chunk.epoch.empty());
  ASSERT_EQ(chunk.unmatched.size(), 1u);
  EXPECT_EQ(chunk.unmatched[0].count, 7u);
  EXPECT_EQ(roundtrip(chunk), chunk);
}

TEST(ChunkEdge, EmptyChunk) {
  const auto chunk = encode_chunk(build_tables({}));
  EXPECT_EQ(chunk.num_matched, 0u);
  EXPECT_EQ(roundtrip(chunk), chunk);
}

TEST(ChunkEdge, DenseWithNextUsesBitmap) {
  // Every event grouped with its successor except the last: the bitmap
  // representation must keep the chunk small.
  std::vector<ReceiveEvent> events;
  for (std::uint64_t c = 1; c <= 256; ++c)
    events.push_back({true, c < 256, 0, c});
  const auto chunk = encode_chunk(build_tables(events));
  EXPECT_EQ(chunk.with_next.size(), 255u);
  support::ByteWriter writer;
  write_chunk(writer, chunk);
  EXPECT_LT(writer.size(), 64u);  // 256/8 bitmap bytes + headers
  EXPECT_EQ(roundtrip(chunk), chunk);
}

TEST(ChunkEdge, SparseWithNextUsesIndices) {
  std::vector<ReceiveEvent> events;
  for (std::uint64_t c = 1; c <= 4096; ++c)
    events.push_back({true, c == 17, 0, c});
  const auto chunk = encode_chunk(build_tables(events));
  ASSERT_EQ(chunk.with_next.size(), 1u);
  support::ByteWriter writer;
  write_chunk(writer, chunk);
  EXPECT_LT(writer.size(), 64u);  // no 512-byte bitmap for one mark
  EXPECT_EQ(roundtrip(chunk), chunk);
}

TEST(ChunkEdge, HugeClockValuesSurvive) {
  std::vector<ReceiveEvent> events = {
      {true, false, 0, 0xFFFFFFFFFFFFFFF0ull},
      {true, false, 1, 0xFFFFFFFFFFFFFFFFull},
  };
  const auto tables = build_tables(events);
  const auto chunk = encode_chunk(tables);
  const auto decoded =
      decode_chunk(roundtrip(chunk), reference_order(tables.matched));
  EXPECT_EQ(decoded, tables);
}

TEST(ChunkEdge, ValueCountExcludesSenderColumn) {
  // The paper-comparable accounting must not grow with N when the stream
  // is in reference order.
  std::vector<ReceiveEvent> events;
  for (std::uint64_t c = 1; c <= 1000; ++c)
    events.push_back({true, false, static_cast<std::int32_t>(c % 3), c});
  const auto chunk = encode_chunk(build_tables(events));
  EXPECT_TRUE(chunk.moves.empty());
  EXPECT_EQ(chunk.value_count(), 2 * chunk.epoch.size());
}

TEST(ChunkEdge, RandomFuzzedBytesNeverCrash) {
  support::Xoshiro256 rng(123);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.bounded(120));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.bounded(256));
    support::ByteReader reader(junk);
    (void)read_chunk(reader);  // must return nullopt or a chunk, not crash
  }
}

// read_chunk rejects CRC-valid chunks whose tables build_tables and
// encode_chunk never produce: replay indexes flat per-position and
// per-slot state with them, and a zero-count unmatched run would stall
// the gate forever.
class CraftedChunk : public ::testing::Test {
 protected:
  // 64 matched events from senders 0..3, a with_next mark and one
  // unmatched run: enough positions that with_next stays in sparse mode.
  static CdcChunk valid_chunk() {
    std::vector<ReceiveEvent> events;
    for (std::uint64_t c = 1; c <= 64; ++c) {
      if (c == 9) events.push_back({false, false, -1, 0});
      events.push_back({true, c == 20, static_cast<std::int32_t>(c % 4), c});
    }
    return encode_chunk(build_tables(events));
  }

  static bool parses(const CdcChunk& chunk) {
    support::ByteWriter writer;
    write_chunk(writer, chunk);
    support::ByteReader reader(writer.view());
    return read_chunk(reader).has_value();
  }

  void SetUp() override { ASSERT_TRUE(parses(valid_chunk())); }
};

TEST_F(CraftedChunk, ZeroCountUnmatchedRunIsRejected) {
  CdcChunk chunk = valid_chunk();
  chunk.unmatched = {UnmatchedRun{3, 0}};
  EXPECT_FALSE(parses(chunk));
}

TEST_F(CraftedChunk, UnmatchedRunIndicesMustIncreaseWithinTheChunk) {
  CdcChunk chunk = valid_chunk();
  chunk.unmatched = {UnmatchedRun{5, 1}, UnmatchedRun{5, 2}};
  EXPECT_FALSE(parses(chunk));
  chunk.unmatched = {UnmatchedRun{6, 1}, UnmatchedRun{5, 1}};
  EXPECT_FALSE(parses(chunk));
  chunk.unmatched = {UnmatchedRun{chunk.num_matched + 1, 1}};
  EXPECT_FALSE(parses(chunk));
  // Trailing tests (index N) are legal.
  chunk.unmatched = {UnmatchedRun{5, 1}, UnmatchedRun{chunk.num_matched, 2}};
  EXPECT_TRUE(parses(chunk));
}

TEST_F(CraftedChunk, WithNextIndicesMustIncreaseBelowN) {
  CdcChunk chunk = valid_chunk();
  chunk.with_next = {7, 7};
  EXPECT_FALSE(parses(chunk));
  chunk.with_next = {9, 4};
  EXPECT_FALSE(parses(chunk));
  chunk.with_next = {chunk.num_matched};
  EXPECT_FALSE(parses(chunk));
}

TEST_F(CraftedChunk, EpochSendersMustStrictlyIncrease) {
  CdcChunk chunk = valid_chunk();
  ASSERT_EQ(chunk.epoch.size(), 4u);
  std::swap(chunk.epoch[1], chunk.epoch[2]);
  EXPECT_FALSE(parses(chunk));
  // A repeated sender (its messages relabelled so the writer can pack
  // the column).
  chunk = valid_chunk();
  const std::int32_t dropped = chunk.epoch[2].sender;
  chunk.epoch[2].sender = chunk.epoch[1].sender;
  for (std::int32_t& s : chunk.ref_senders)
    if (s == dropped) s = chunk.epoch[1].sender;
  EXPECT_FALSE(parses(chunk));
}

// read_chunk accepts any svarint delay, so a decoder must range-check a
// delay without computing position + delay, which overflows int64 for a
// crafted delay near INT64_MAX.
TEST(ChunkEdgeDeathTest, CraftedDelayIsRejectedWithoutOverflow) {
  for (const std::int64_t delay :
       {std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    CdcChunk crafted;
    crafted.num_matched = 3;
    crafted.moves = {MoveOp{1, delay}};
    crafted.epoch = {EpochEntry{0, 9}};
    crafted.ref_senders = {0, 0, 0};
    const CdcChunk parsed = roundtrip(crafted);
    ASSERT_EQ(parsed.moves, crafted.moves);
    EXPECT_DEATH(observed_reference_indices(parsed),
                 "move op target out of range");
    EXPECT_DEATH(apply_moves(3, parsed.moves), "move op target out of range");
  }
}

}  // namespace
}  // namespace cdc::record
