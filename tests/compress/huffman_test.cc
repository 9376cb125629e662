#include "compress/huffman.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <optional>
#include <vector>

#include "apps/mcb.h"
#include "compress/deflate.h"
#include "compress/lz77.h"
#include "minimpi/simulator.h"
#include "runtime/storage.h"
#include "support/binary.h"
#include "support/rng.h"
#include "tool/frame.h"
#include "tool/recorder.h"

namespace cdc::compress {
namespace {

double kraft_sum(std::span<const std::uint8_t> lengths) {
  double sum = 0.0;
  for (const std::uint8_t len : lengths)
    if (len > 0) sum += std::ldexp(1.0, -len);
  return sum;
}

TEST(PackageMerge, TwoSymbols) {
  const std::uint64_t freqs[] = {5, 1};
  const auto lengths = package_merge_lengths(freqs, 15);
  EXPECT_EQ(lengths[0], 1);
  EXPECT_EQ(lengths[1], 1);
}

TEST(PackageMerge, SingleSymbolGetsLengthOne) {
  const std::uint64_t freqs[] = {0, 42, 0};
  const auto lengths = package_merge_lengths(freqs, 15);
  EXPECT_EQ(lengths[0], 0);
  EXPECT_EQ(lengths[1], 1);
  EXPECT_EQ(lengths[2], 0);
}

TEST(PackageMerge, SkewedFrequenciesGetShortCodesForCommonSymbols) {
  const std::uint64_t freqs[] = {1000, 100, 10, 1};
  const auto lengths = package_merge_lengths(freqs, 15);
  EXPECT_LE(lengths[0], lengths[1]);
  EXPECT_LE(lengths[1], lengths[2]);
  EXPECT_LE(lengths[2], lengths[3]);
  EXPECT_DOUBLE_EQ(kraft_sum(lengths), 1.0);
}

TEST(PackageMerge, RespectsLengthLimit) {
  // Fibonacci-like frequencies force deep unbounded Huffman trees.
  std::vector<std::uint64_t> freqs = {1, 1};
  while (freqs.size() < 24)
    freqs.push_back(freqs[freqs.size() - 1] + freqs[freqs.size() - 2]);
  for (const int limit : {7, 10, 15}) {
    const auto lengths = package_merge_lengths(freqs, limit);
    for (const std::uint8_t len : lengths) EXPECT_LE(len, limit);
    EXPECT_LE(kraft_sum(lengths), 1.0 + 1e-12);
  }
}

TEST(PackageMerge, KraftEqualityHolds) {
  support::Xoshiro256 rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> freqs(2 + rng.bounded(200));
    for (auto& f : freqs) f = rng.bounded(10000);
    std::size_t nonzero = 0;
    for (const auto f : freqs) nonzero += f > 0;
    if (nonzero < 2) continue;
    const auto lengths = package_merge_lengths(freqs, 15);
    EXPECT_NEAR(kraft_sum(lengths), 1.0, 1e-12);
  }
}

TEST(PackageMerge, IsOptimalAtGenerousLimit) {
  // Against entropy bound: average length within 1 bit of entropy.
  support::Xoshiro256 rng(12);
  std::vector<std::uint64_t> freqs(64);
  for (auto& f : freqs) f = 1 + rng.bounded(1000);
  const auto lengths = package_merge_lengths(freqs, 15);
  const double total = static_cast<double>(
      std::accumulate(freqs.begin(), freqs.end(), std::uint64_t{0}));
  double entropy = 0.0;
  double avg_len = 0.0;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    const double p = static_cast<double>(freqs[s]) / total;
    entropy -= p * std::log2(p);
    avg_len += p * lengths[s];
  }
  EXPECT_GE(avg_len, entropy - 1e-9);
  EXPECT_LE(avg_len, entropy + 1.0);
}

// --- Differential oracle ----------------------------------------------------

// The textbook package-merge, which carries the multiset of leaf symbols in
// every package and reads each code length off the chosen packages. The
// production implementation keeps only weights and leaf flags and counts
// leaves per level instead; both must give identical lengths, ties
// included, or compressed bytes would change.
struct OraclePackage {
  std::uint64_t weight = 0;
  std::vector<std::uint16_t> symbols;
};

bool oracle_weight_less(const OraclePackage& a,
                        const OraclePackage& b) noexcept {
  return a.weight < b.weight;
}

std::vector<std::uint8_t> oracle_package_merge_lengths(
    std::span<const std::uint64_t> freqs, int limit) {
  std::vector<std::uint8_t> lengths(freqs.size(), 0);
  std::vector<std::uint16_t> active;
  for (std::size_t s = 0; s < freqs.size(); ++s)
    if (freqs[s] > 0) active.push_back(static_cast<std::uint16_t>(s));
  if (active.empty()) return lengths;
  if (active.size() == 1) {
    lengths[active[0]] = 1;
    return lengths;
  }

  std::vector<OraclePackage> leaves;
  for (const std::uint16_t s : active)
    leaves.push_back(OraclePackage{freqs[s], {s}});
  std::sort(leaves.begin(), leaves.end(), oracle_weight_less);

  std::vector<OraclePackage> prev = leaves;
  for (int level = limit - 1; level >= 1; --level) {
    std::vector<OraclePackage> packaged;
    for (std::size_t i = 0; i + 1 < prev.size(); i += 2) {
      OraclePackage merged;
      merged.weight = prev[i].weight + prev[i + 1].weight;
      merged.symbols = prev[i].symbols;
      merged.symbols.insert(merged.symbols.end(), prev[i + 1].symbols.begin(),
                            prev[i + 1].symbols.end());
      packaged.push_back(std::move(merged));
    }
    std::vector<OraclePackage> next;
    std::merge(leaves.begin(), leaves.end(),
               std::make_move_iterator(packaged.begin()),
               std::make_move_iterator(packaged.end()),
               std::back_inserter(next), oracle_weight_less);
    prev = std::move(next);
  }
  const std::size_t take = 2 * (active.size() - 1);
  for (std::size_t i = 0; i < take; ++i)
    for (const std::uint16_t s : prev[i].symbols) ++lengths[s];
  return lengths;
}

enum class Shape { kTieHeavy, kSkewed, kPowersOfTwo, kUniform };

/// A random frequency table of `alphabet` symbols. `zero_share` of the
/// symbols (in percent) get frequency 0, and at most 2^limit stay coded.
std::vector<std::uint64_t> random_table(support::Xoshiro256& rng,
                                        std::size_t alphabet, Shape shape,
                                        int zero_share, int limit) {
  std::vector<std::uint64_t> freqs(alphabet);
  for (auto& f : freqs) {
    switch (shape) {
      case Shape::kTieHeavy:
        f = 1 + rng.bounded(4);
        break;
      case Shape::kSkewed:  // log-uniform magnitudes over 24 octaves
        f = 1 + rng.bounded(std::uint64_t{1} << rng.bounded(24));
        break;
      case Shape::kPowersOfTwo:
        f = std::uint64_t{1} << rng.bounded(30);
        break;
      case Shape::kUniform:
        f = 1 + rng.bounded(10000);
        break;
    }
    if (rng.bounded(100) < static_cast<std::uint64_t>(zero_share)) f = 0;
  }
  const std::size_t max_coded = std::size_t{1} << limit;
  std::size_t coded = 0;
  for (auto& f : freqs)
    if (f > 0 && ++coded > max_coded) f = 0;
  return freqs;
}

TEST(PackageMergeDifferential, RandomTablesMatchOracle) {
  support::Xoshiro256 rng(2024);
  constexpr std::size_t kAlphabets[] = {19, 30, 286};
  constexpr int kLimits[] = {7, 15};
  constexpr Shape kShapes[] = {Shape::kTieHeavy, Shape::kSkewed,
                               Shape::kPowersOfTwo, Shape::kUniform};
  constexpr int kZeroShares[] = {0, 30, 80};
  constexpr int kTablesPerCase = 150;  // 3 x 2 x 4 x 3 x 150 = 10,800
  int tables = 0;
  for (const std::size_t alphabet : kAlphabets)
    for (const int limit : kLimits)
      for (const Shape shape : kShapes)
        for (const int zero_share : kZeroShares)
          for (int t = 0; t < kTablesPerCase; ++t, ++tables) {
            const auto freqs =
                random_table(rng, alphabet, shape, zero_share, limit);
            ASSERT_EQ(package_merge_lengths(freqs, limit),
                      oracle_package_merge_lengths(freqs, limit))
                << "alphabet " << alphabet << " limit " << limit << " shape "
                << static_cast<int>(shape) << " zeros " << zero_share
                << "% table " << t;
          }
  EXPECT_GE(tables, 10000);
}

TEST(PackageMergeDifferential, RecordedMcbTokenTablesMatchOracle) {
  // Every DEFLATE block of a recorded MCB run builds a literal/length and a
  // distance table from its LZ77 tokens, then a code-length table from the
  // lengths of those two.
  runtime::MemoryStore store;
  {
    tool::Recorder recorder(16, &store);
    minimpi::Simulator::Config config;
    config.num_ranks = 16;
    config.noise_seed = 5;
    minimpi::Simulator sim(config, &recorder);
    apps::McbConfig mcb;
    mcb.grid_x = 4;
    mcb.grid_y = 4;
    mcb.particles_per_rank = 60;
    apps::run_mcb(sim, mcb);
    recorder.finalize();
  }
  int frames = 0;
  for (const runtime::StreamKey& key : store.keys()) {
    const std::vector<std::uint8_t> bytes = store.read(key);
    support::ByteReader reader(bytes);
    while (!reader.exhausted()) {
      const std::optional<tool::Frame> frame = tool::read_frame(reader);
      ASSERT_TRUE(frame.has_value());
      ++frames;
      std::vector<std::uint64_t> lit(288, 0);
      std::vector<std::uint64_t> dist(30, 0);
      for (const Lz77Token& token : lz77_tokenize(
               frame->payload, lz77_params_for(DeflateLevel::kDefault))) {
        if (token.is_literal()) {
          ++lit[token.literal];
        } else {
          ++lit[257 + static_cast<std::size_t>(
                          detail::length_to_code(token.length))];
          ++dist[static_cast<std::size_t>(
              detail::dist_to_code(token.distance))];
        }
      }
      ++lit[256];
      if (std::all_of(dist.begin(), dist.end(),
                      [](std::uint64_t f) { return f == 0; }))
        dist[0] = 1;

      std::vector<std::uint64_t> code_lengths(19, 0);
      for (const auto* table : {&lit, &dist}) {
        const auto lengths = package_merge_lengths(*table, 15);
        ASSERT_EQ(lengths, oracle_package_merge_lengths(*table, 15))
            << "frame " << frames;
        for (const std::uint8_t len : lengths) ++code_lengths[len];
      }
      ASSERT_EQ(package_merge_lengths(code_lengths, 7),
                oracle_package_merge_lengths(code_lengths, 7))
          << "frame " << frames;
    }
  }
  EXPECT_GT(frames, 16);
}

TEST(CanonicalCodes, Rfc1951Example) {
  // RFC 1951 §3.2.2 worked example: lengths (3,3,3,3,3,2,4,4) →
  // codes (010,011,100,101,110,00,1110,1111).
  const std::uint8_t lengths[] = {3, 3, 3, 3, 3, 2, 4, 4};
  const auto codes = canonical_codes(lengths);
  const std::uint32_t expected[] = {0b010, 0b011, 0b100, 0b101,
                                    0b110, 0b00,  0b1110, 0b1111};
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(codes[i], expected[i]);
}

TEST(HuffmanDecoder, DecodesCanonicalCodes) {
  const std::uint8_t lengths[] = {3, 3, 3, 3, 3, 2, 4, 4};
  const auto codes = canonical_codes(lengths);
  HuffmanDecoder decoder{std::span<const std::uint8_t>{lengths}};
  ASSERT_TRUE(decoder.ok());

  for (int sym = 0; sym < 8; ++sym) {
    decoder.reset();
    int result = -1;
    for (int bit = lengths[sym] - 1; bit >= 0; --bit) {
      result = decoder.feed((codes[static_cast<std::size_t>(sym)] >> bit) & 1);
    }
    EXPECT_EQ(result, sym);
  }
}

TEST(HuffmanDecoder, RejectsOversubscribedLengths) {
  const std::uint8_t lengths[] = {1, 1, 1};  // Kraft sum 1.5
  HuffmanDecoder decoder;
  EXPECT_FALSE(decoder.init(lengths));
}

TEST(HuffmanDecoder, RejectsIncompleteMultiSymbolLengths) {
  const std::uint8_t lengths[] = {2, 2, 2};  // Kraft sum 0.75
  HuffmanDecoder decoder;
  EXPECT_FALSE(decoder.init(lengths));
}

TEST(HuffmanDecoder, AcceptsDegenerateSingleCode) {
  const std::uint8_t lengths[] = {0, 1, 0};
  HuffmanDecoder decoder;
  ASSERT_TRUE(decoder.init(lengths));
  decoder.reset();
  EXPECT_EQ(decoder.feed(0), 1);
}

TEST(HuffmanDecoder, RoundTripRandomAlphabets) {
  support::Xoshiro256 rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> freqs(2 + rng.bounded(280));
    for (auto& f : freqs) f = rng.bounded(500);
    freqs[0] = 1;
    freqs[1] = 1;  // at least two coded symbols
    const auto lengths = package_merge_lengths(freqs, 15);
    const auto codes = canonical_codes(lengths);
    HuffmanDecoder decoder{std::span<const std::uint8_t>{lengths}};
    ASSERT_TRUE(decoder.ok());
    for (std::size_t sym = 0; sym < freqs.size(); ++sym) {
      if (lengths[sym] == 0) continue;
      decoder.reset();
      int result = -1;
      for (int bit = lengths[sym] - 1; bit >= 0; --bit)
        result = decoder.feed((codes[sym] >> bit) & 1);
      EXPECT_EQ(result, static_cast<int>(sym));
    }
  }
}

}  // namespace
}  // namespace cdc::compress
