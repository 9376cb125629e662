// Edge cases of the CDC chunk format: sender-column bit widths, clock
// ties, degenerate chunks, crafted tables and move delays.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>

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

// encode_chunk against plain oracles on random tables: its sender column
// is the senders of reference_order(matched), its epoch line is the
// per-sender maximum taken with std::map, and decode_chunk with that
// reference order rebuilds the tables.
void expect_chunk_matches_oracles(const ChunkTables& tables) {
  const CdcChunk chunk = encode_chunk(tables);
  const std::vector<clock::MessageId> reference =
      reference_order(tables.matched);
  std::vector<std::int32_t> senders;
  for (const clock::MessageId& id : reference) senders.push_back(id.sender);
  EXPECT_EQ(chunk.ref_senders, senders);

  std::map<std::int32_t, std::uint64_t> max_clock;
  for (const clock::MessageId& id : tables.matched) {
    auto [it, inserted] = max_clock.emplace(id.sender, id.clock);
    if (!inserted) it->second = std::max(it->second, id.clock);
  }
  std::vector<EpochEntry> epoch;
  for (const auto& [sender, clock] : max_clock)
    epoch.push_back(EpochEntry{sender, clock});
  EXPECT_EQ(chunk.epoch, epoch);

  EXPECT_EQ(decode_chunk(roundtrip(chunk), reference), tables);
}

/// `n` receives from `senders` senders with clocks drawn from a window of
/// `clock_span` values (small spans force ties across senders), unique per
/// sender, in a random observed order, with unmatched tests and with_next
/// marks mixed in.
ChunkTables random_tables(support::Xoshiro256& rng, std::int32_t senders,
                          std::size_t n, std::uint64_t clock_span) {
  std::set<std::pair<std::int32_t, std::uint64_t>> ids;
  while (ids.size() < n) {
    const auto s = static_cast<std::int32_t>(
        rng.bounded(static_cast<std::uint64_t>(senders)));
    ids.emplace(s, 1000 + rng.bounded(clock_span));
  }
  std::vector<ReceiveEvent> matched;
  for (const auto& [s, c] : ids)
    matched.push_back({true, rng.bounded(5) == 0, s, c});
  for (std::size_t i = matched.size(); i > 1; --i)
    std::swap(matched[i - 1], matched[rng.bounded(i)]);
  std::vector<ReceiveEvent> events;
  for (const ReceiveEvent& e : matched) {
    while (rng.bounded(6) == 0) events.push_back({false, false, -1, 0});
    events.push_back(e);
  }
  if (!events.empty()) events.back().with_next = false;
  return build_tables(events);
}

TEST(ChunkEdge, EncodeMatchesOraclesOnRandomTables) {
  support::Xoshiro256 rng(1508);
  for (int trial = 0; trial < 300; ++trial) {
    std::int32_t senders = 1 + static_cast<std::int32_t>(rng.bounded(8));
    std::size_t n = rng.bounded(300);
    switch (trial % 6) {
      case 0: senders = 1; break;
      case 1: senders = 768; n = 150 + rng.bounded(100); break;
      case 2: n = 0; break;
      default: break;
    }
    // Narrow clock windows tie clocks across senders; wide ones rarely do.
    // Every window holds at least 2n ids, so drawing n distinct ones ends.
    const std::uint64_t narrow = n / 2 + 1 + rng.bounded(4);
    const std::uint64_t span = std::max<std::uint64_t>(
        trial % 2 == 0 ? narrow : 1 + 4 * n,
        2 * n / static_cast<std::uint64_t>(senders) + 1);
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    expect_chunk_matches_oracles(random_tables(rng, senders, n, span));
  }
}

TEST(ChunkEdge, EncodeMatchesOraclesOnDegenerateTables) {
  expect_chunk_matches_oracles(build_tables({}));
  expect_chunk_matches_oracles(build_tables(
      std::vector<ReceiveEvent>(5, ReceiveEvent{false, false, -1, 0})));
  // Every sender at one clock: the reference order is by rank alone.
  std::vector<ReceiveEvent> tied;
  for (std::int32_t s = 767; s >= 0; --s) tied.push_back({true, false, s, 42});
  expect_chunk_matches_oracles(build_tables(tied));
  // One sender, descending clocks: every event but one moves.
  std::vector<ReceiveEvent> reversed;
  for (std::uint64_t c = 500; c > 0; --c)
    reversed.push_back({true, false, 3, c});
  expect_chunk_matches_oracles(build_tables(reversed));
  // Clocks spanning nearly 2^64: too wide to pack with the observed index.
  std::vector<ReceiveEvent> wide;
  for (std::uint64_t k = 0; k < 300; ++k)
    wide.push_back({true, false, static_cast<std::int32_t>(k % 3),
                    (k % 2 == 0 ? k : ~std::uint64_t{0} - k)});
  expect_chunk_matches_oracles(build_tables(wide));
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

// The sender column is coded against the epoch line, so a sender missing
// from the line cannot be written, even when the line's single sender
// makes every code zero bits wide.
TEST(ChunkEdgeDeathTest, SenderMissingFromTheEpochLineIsRejected) {
  const auto write = [](const CdcChunk& chunk) {
    support::ByteWriter writer;
    write_chunk(writer, chunk);
  };
  CdcChunk crafted;
  crafted.num_matched = 3;
  crafted.epoch = {EpochEntry{0, 9}};
  crafted.ref_senders = {0, 7, 0};
  EXPECT_DEATH(write(crafted), "missing from the epoch line");
  crafted.epoch = {EpochEntry{0, 9}, EpochEntry{3, 4}};
  EXPECT_DEATH(write(crafted), "missing from the epoch line");
  crafted.epoch.clear();
  EXPECT_DEATH(write(crafted), "missing from the epoch line");
}

}  // namespace
}  // namespace cdc::record
