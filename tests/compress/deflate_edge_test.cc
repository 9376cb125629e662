// Edge cases the LZ77/DEFLATE fast path could plausibly break: matches at
// the 32 KiB window boundary, far distances that take the 13-extra-bit
// code 29, overlapping copies (distance < length), the incompressible →
// stored-block fallback, empty input, and cross-thread determinism of the
// thread-local codec workspaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "compress/deflate.h"
#include "compress/lz77.h"
#include "support/rng.h"

namespace cdc::compress {
namespace {

constexpr DeflateLevel kAllLevels[] = {
    DeflateLevel::kStored, DeflateLevel::kFast, DeflateLevel::kDefault,
    DeflateLevel::kBest};

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.bounded(256));
  return out;
}

void expect_roundtrip_all_levels(const std::vector<std::uint8_t>& input) {
  for (const DeflateLevel level : kAllLevels) {
    const auto decoded = deflate_decompress(deflate_compress(input, level));
    ASSERT_TRUE(decoded.has_value())
        << "level " << to_string(level) << ", " << input.size() << " bytes";
    EXPECT_EQ(*decoded, input) << "level " << to_string(level);
    const auto gunzipped = gzip_decompress(gzip_compress(input, level));
    ASSERT_TRUE(gunzipped.has_value()) << "level " << to_string(level);
    EXPECT_EQ(*gunzipped, input) << "level " << to_string(level);
  }
}

// A repeat exactly one window back: distance 32768 is the largest legal
// distance, so the matcher's `pos - kWindowSize` history limit is an
// inclusive bound. Any off-by-one here either loses the match (ratio) or
// emits distance 32769 (corruption).
TEST(DeflateEdge, MatchAtExactWindowBoundary) {
  const std::vector<std::uint8_t> block = random_bytes(300, 7);
  std::vector<std::uint8_t> input = block;
  const std::vector<std::uint8_t> filler = random_bytes(32768 - 300, 8);
  input.insert(input.end(), filler.begin(), filler.end());
  input.insert(input.end(), block.begin(), block.end());  // at offset 32768

  const auto tokens = lz77_tokenize(input, lz77_params_for(DeflateLevel::kBest));
  EXPECT_EQ(lz77_expand(tokens), input);
  for (const Lz77Token& t : tokens) {
    if (t.length > 0) {
      ASSERT_LE(t.distance, 32768u);
    }
  }
  expect_roundtrip_all_levels(input);
}

// A repeat one byte beyond the window must NOT be matched at distance
// 32769 — the stream would be unrepresentable/corrupt — but the input must
// still round-trip (as literals or shorter matches).
TEST(DeflateEdge, RepeatJustOutsideWindowIsNotMatched) {
  const std::vector<std::uint8_t> block = random_bytes(300, 9);
  std::vector<std::uint8_t> input = block;
  const std::vector<std::uint8_t> filler = random_bytes(32769 - 300, 10);
  input.insert(input.end(), filler.begin(), filler.end());
  input.insert(input.end(), block.begin(), block.end());  // at offset 32769

  const auto tokens = lz77_tokenize(input, lz77_params_for(DeflateLevel::kBest));
  EXPECT_EQ(lz77_expand(tokens), input);
  for (const Lz77Token& t : tokens) {
    if (t.length > 0) {
      ASSERT_LE(t.distance, 32768u);
    }
  }
  expect_roundtrip_all_levels(input);
}

// Distances >= 24577 use distance code 29 (13 extra bits) — the widest
// fields in both the encoder's batched token emit and the distance-bucket
// table's second half.
TEST(DeflateEdge, FarDistanceCode29IsExercised) {
  const std::vector<std::uint8_t> block = random_bytes(600, 11);
  std::vector<std::uint8_t> input = block;
  const std::vector<std::uint8_t> filler = random_bytes(26000 - 600, 12);
  input.insert(input.end(), filler.begin(), filler.end());
  input.insert(input.end(), block.begin(), block.end());  // distance ~26000

  const auto tokens = lz77_tokenize(input, lz77_params_for(DeflateLevel::kBest));
  EXPECT_EQ(lz77_expand(tokens), input);
  bool saw_far_match = false;
  for (const Lz77Token& t : tokens) {
    if (t.length > 0 && t.distance >= 24577) saw_far_match = true;
  }
  EXPECT_TRUE(saw_far_match)
      << "expected at least one match with distance >= 24577";
  expect_roundtrip_all_levels(input);
}

// Overlapping copies: distance < length means inflate must copy bytes it
// has only just written (RLE-style). Cover distance 1 (pure run) and a
// short period that isn't a divisor of the match length.
TEST(DeflateEdge, OverlappingCopies) {
  expect_roundtrip_all_levels(std::vector<std::uint8_t>(10000, 0xAB));

  std::vector<std::uint8_t> period7;
  for (int i = 0; i < 9000; ++i)
    period7.push_back(static_cast<std::uint8_t>("acegikm"[i % 7]));
  const auto tokens =
      lz77_tokenize(period7, lz77_params_for(DeflateLevel::kDefault));
  EXPECT_EQ(lz77_expand(tokens), period7);
  bool saw_overlap = false;
  for (const Lz77Token& t : tokens) {
    if (t.length > 0 && t.distance < static_cast<std::uint32_t>(t.length))
      saw_overlap = true;
  }
  EXPECT_TRUE(saw_overlap) << "expected a match overlapping its own output";
  expect_roundtrip_all_levels(period7);
}

// Incompressible input must fall back to stored blocks: bounded expansion
// (5 bytes of header per <= 65535-byte stored block, plus the gzip
// wrapper) rather than a fixed-Huffman stream that inflates random bytes.
TEST(DeflateEdge, IncompressibleFallsBackToStored) {
  const std::vector<std::uint8_t> input = random_bytes(200000, 13);
  for (const DeflateLevel level : kAllLevels) {
    const auto compressed = deflate_compress(input, level);
    // 5 bytes per stored-block header; the encoder may split on its
    // token-batch granularity rather than the 65535-byte maximum, so
    // allow one extra header per 32 KiB plus trailer slack.
    const std::size_t stored_bound =
        input.size() + 5 * (input.size() / 32768 + 2) + 16;
    EXPECT_LE(compressed.size(), stored_bound) << "level " << to_string(level);
    const auto decoded = deflate_decompress(compressed);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, input);
  }
}

TEST(DeflateEdge, EmptyInput) {
  expect_roundtrip_all_levels({});
  for (const DeflateLevel level : kAllLevels) {
    // An empty gzip member is still a full header + trailer.
    EXPECT_GE(gzip_compress({}, level).size(), 18u);
  }
}

// The compressor keeps per-thread workspaces (hash chains, token buffers,
// bit writers). Determinism contract: the output bytes depend only on
// (input, level) — never on which thread ran, what it compressed before,
// or how its workspace was warmed. This is what lets a cdc_served session
// worker and a local rebuild produce bit-identical containers.
TEST(DeflateEdge, EightThreadsProduceIdenticalBytesPerLevel) {
  // Record-like corpus: mostly zeros with small values, moderately long.
  support::Xoshiro256 rng(14);
  std::vector<std::uint8_t> input(262144);
  for (auto& b : input)
    b = rng.bounded(100) < 85 ? 0 : static_cast<std::uint8_t>(rng.bounded(6));

  for (const DeflateLevel level : kAllLevels) {
    const auto expected_deflate = deflate_compress(input, level);
    const auto expected_gzip = gzip_compress(input, level);
    std::vector<std::vector<std::uint8_t>> deflate_out(8), gzip_out(8);
    {
      std::vector<std::jthread> threads;
      for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
          // Warm this thread's workspace with unrelated data first, so the
          // test also catches state leaking across compressions.
          (void)deflate_compress(random_bytes(4096, 100 + t), level);
          deflate_out[t] = deflate_compress(input, level);
          gzip_out[t] = gzip_compress(input, level);
        });
      }
    }
    for (int t = 0; t < 8; ++t) {
      EXPECT_EQ(deflate_out[t], expected_deflate)
          << "level " << to_string(level) << ", thread " << t;
      EXPECT_EQ(gzip_out[t], expected_gzip)
          << "level " << to_string(level) << ", thread " << t;
    }
  }
}

}  // namespace
}  // namespace cdc::compress
