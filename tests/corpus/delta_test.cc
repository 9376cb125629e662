// Differential compression round-trips of the correcting encoder (JACM
// 49(3), 2002) through apply_delta, plus malformed-delta rejection.
//
// fuzz_delta suites run under the nightly `ctest -R fuzz` matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "corpus/delta.h"
#include "support/rng.h"

namespace cdc::corpus {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.bounded(256));
  return bytes;
}

// Encodes version against reference and checks apply_delta rebuilds the
// version bit-for-bit. Returns the serialized delta size.
std::size_t expect_roundtrip(const std::vector<std::uint8_t>& reference,
                             const std::vector<std::uint8_t>& version,
                             DeltaStats* stats = nullptr) {
  const std::vector<std::uint8_t> delta =
      encode_delta(reference, version, stats);
  const auto rebuilt = apply_delta(reference, delta);
  EXPECT_TRUE(rebuilt.has_value());
  if (rebuilt) {
    EXPECT_EQ(*rebuilt, version);
  }
  return delta.size();
}

TEST(Delta, IdenticalInputsCollapseToCopies) {
  const std::vector<std::uint8_t> bytes = random_bytes(8 * 1024, 1);
  DeltaStats stats;
  const std::size_t size = expect_roundtrip(bytes, bytes, &stats);
  EXPECT_EQ(stats.copied_bytes, bytes.size());
  EXPECT_EQ(stats.literal_bytes, 0u);
  EXPECT_LT(size, 64u);  // header + one copy
}

TEST(Delta, EdgeShapesRoundTrip) {
  const std::vector<std::uint8_t> some = random_bytes(4096, 2);
  const std::vector<std::uint8_t> empty;
  expect_roundtrip(empty, some);   // all literals
  expect_roundtrip(some, empty);   // version shrinks to nothing
  expect_roundtrip(empty, empty);
  expect_roundtrip(some, {some.begin(), some.begin() + 100});
  std::vector<std::uint8_t> grown = some;  // version longer than ref
  const std::vector<std::uint8_t> tail = random_bytes(2048, 3);
  grown.insert(grown.end(), tail.begin(), tail.end());
  expect_roundtrip(some, grown);
}

TEST(Delta, InsertionKeepsMostBytesAsCopies) {
  const std::vector<std::uint8_t> reference = random_bytes(32 * 1024, 4);
  std::vector<std::uint8_t> version = reference;
  const std::vector<std::uint8_t> insert = random_bytes(200, 5);
  version.insert(version.begin() + 10000, insert.begin(), insert.end());
  DeltaStats stats;
  const std::size_t size = expect_roundtrip(reference, version, &stats);
  EXPECT_GT(stats.copied_bytes, reference.size() * 9 / 10);
  EXPECT_LT(size, version.size() / 10);
}

TEST(Delta, SwappedHalvesForceAnInPlaceCycle) {
  // version = B | A where reference = A | B: each copy reads the region
  // the other writes, a 2-cycle an in-place decoder would have to break
  // (TKDE'03 §4). apply_delta reads from the untouched reference, so both
  // halves stay copies and nothing is spelled out as a literal.
  const std::size_t half = 4096;
  const std::vector<std::uint8_t> reference = random_bytes(2 * half, 6);
  std::vector<std::uint8_t> version;
  version.insert(version.end(), reference.begin() + half, reference.end());
  version.insert(version.end(), reference.begin(), reference.begin() + half);
  DeltaStats stats;
  expect_roundtrip(reference, version, &stats);
  EXPECT_EQ(stats.copies, 2u);
  EXPECT_EQ(stats.copied_bytes, version.size());
  EXPECT_EQ(stats.literal_bytes, 0u);
}

TEST(Delta, CorrectingRecoversAMatchOnepassCommitsPast) {
  // The corrective step's reason to exist: content that appears EARLIER
  // in the version than in the reference. A onepass encoder only matches
  // footprints at reference offsets it has already passed (rp <= vp), so
  // a block moved toward the front defeats it. Correcting checkpoints the
  // whole reference up front, so the moved block is found wherever it
  // sits, and backward extension reclaims the bytes before its first
  // footprint hit.
  const std::vector<std::uint8_t> head = random_bytes(8 * 1024, 7);
  const std::vector<std::uint8_t> moved = random_bytes(24 * 1024, 8);
  std::vector<std::uint8_t> reference = head;
  reference.insert(reference.end(), moved.begin(), moved.end());
  std::vector<std::uint8_t> version = moved;  // block moved to the front
  version.insert(version.end(), head.begin(), head.end());

  DeltaStats stats;
  expect_roundtrip(reference, version, &stats);
  EXPECT_EQ(stats.copied_bytes, version.size());
  EXPECT_EQ(stats.literal_bytes, 0u);
}

TEST(Delta, HeaderRecordsAlgorithmAndSizes) {
  const std::vector<std::uint8_t> reference = random_bytes(1000, 9);
  const std::vector<std::uint8_t> version = random_bytes(1500, 10);
  const std::vector<std::uint8_t> delta = encode_delta(reference, version);
  ASSERT_GE(delta.size(), 3u);
  EXPECT_EQ(delta[0], 'D');
  EXPECT_EQ(delta[1], 1);  // format version
  EXPECT_EQ(delta[2], 2);  // algorithm byte: correcting
  const auto header = read_delta_header(delta);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->ref_len, reference.size());
  EXPECT_EQ(header->ver_len, version.size());
}

TEST(Delta, MalformedDeltasAreRejectedNotFatal) {
  const std::vector<std::uint8_t> reference = random_bytes(2048, 11);
  std::vector<std::uint8_t> version = reference;
  version[100] ^= 0xff;
  const std::vector<std::uint8_t> good = encode_delta(reference, version);
  ASSERT_TRUE(apply_delta(reference, good).has_value());

  auto rejects = [&](std::vector<std::uint8_t> bad, const char* what) {
    EXPECT_FALSE(apply_delta(reference, bad).has_value()) << what;
  };

  rejects({}, "empty");
  rejects({'X'}, "bad magic");
  {
    std::vector<std::uint8_t> bad = good;
    bad[0] = 'E';
    rejects(std::move(bad), "wrong magic byte");
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[1] = 99;  // unknown format version
    rejects(std::move(bad), "unknown version");
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[2] = 1;  // the retired onepass algorithm byte
    rejects(std::move(bad), "algorithm byte other than correcting");
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad.resize(bad.size() / 2);  // truncated mid-command
    rejects(std::move(bad), "truncated");
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad.push_back(0x7f);  // bytes after the end marker
    rejects(std::move(bad), "trailing garbage");
  }
  {
    // A copy that reads past the reference: serialize it by hand.
    DeltaCommand copy;
    copy.kind = DeltaCommand::Kind::kCopy;
    copy.write_off = 0;
    copy.read_off = reference.size();  // out of bounds
    copy.length = 64;
    const std::vector<DeltaCommand> commands{copy};
    rejects(serialize_delta(commands, reference.size(), 64),
            "copy past reference end");
  }
  {
    // A write past the declared version length.
    DeltaCommand add;
    add.kind = DeltaCommand::Kind::kAdd;
    add.write_off = 100;
    add.length = 8;
    add.bytes = random_bytes(8, 12);
    const std::vector<DeltaCommand> commands{add};
    rejects(serialize_delta(commands, reference.size(), 10),
            "write past version end");
  }
  {
    // A few-byte delta whose header declares a 2^62-byte version: its
    // commands write nothing, so it must be refused before any output
    // buffer is sized from the header.
    rejects(serialize_delta({}, reference.size(), std::uint64_t{1} << 62),
            "version length beyond what the commands write");
  }
  {
    // Commands that leave a gap in the declared version.
    DeltaCommand copy;
    copy.kind = DeltaCommand::Kind::kCopy;
    copy.length = 64;
    const std::vector<DeltaCommand> commands{copy};
    rejects(serialize_delta(commands, reference.size(), 65),
            "version bytes no command writes");
  }
  {
    // A good delta applied to a reference of the wrong size.
    std::vector<std::uint8_t> shorter = reference;
    shorter.pop_back();
    EXPECT_FALSE(apply_delta(shorter, good).has_value());
  }
}

TEST(fuzz_delta, RandomEditScriptsRoundTripBothAlgorithms) {
  // Property sweep: random references mutated by random edit scripts
  // (overwrites, inserts, deletes, block moves), every seed. The name
  // dates from when the sweep also ran the onepass encoder; the
  // correcting encoder is the one that remains.
  const std::uint64_t base_seed = env_u64("CDC_FUZZ_BASE_SEED", 1);
  const std::uint64_t num_seeds = env_u64("CDC_FUZZ_SEEDS", 64);
  for (std::uint64_t s = 0; s < num_seeds; ++s) {
    const std::uint64_t seed = base_seed + s;
    support::Xoshiro256 rng(seed * 0x2545f4914f6cdd1dull + 3);
    std::vector<std::uint8_t> reference =
        random_bytes(512 + rng.bounded(24 * 1024), seed);
    std::vector<std::uint8_t> version = reference;
    const std::uint64_t edits = 1 + rng.bounded(8);
    for (std::uint64_t e = 0; e < edits && !version.empty(); ++e) {
      const std::size_t at = rng.bounded(version.size());
      switch (rng.bounded(4)) {
        case 0:  // overwrite a byte
          version[at] = static_cast<std::uint8_t>(rng.bounded(256));
          break;
        case 1: {  // insert a small random run
          const auto run = random_bytes(1 + rng.bounded(300), seed ^ e);
          version.insert(version.begin() + static_cast<std::ptrdiff_t>(at),
                         run.begin(), run.end());
          break;
        }
        case 2: {  // delete a span
          const std::size_t n = std::min<std::size_t>(
              1 + rng.bounded(300), version.size() - at);
          version.erase(version.begin() + static_cast<std::ptrdiff_t>(at),
                        version.begin() + static_cast<std::ptrdiff_t>(at + n));
          break;
        }
        default: {  // rotate: moves blocks, exercising correction
          std::rotate(version.begin(),
                      version.begin() + static_cast<std::ptrdiff_t>(at),
                      version.end());
          break;
        }
      }
    }
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    expect_roundtrip(reference, version);
  }
}

TEST(fuzz_delta, DeltaIsDeterministic) {
  const std::uint64_t seed = env_u64("CDC_FUZZ_BASE_SEED", 1);
  const std::vector<std::uint8_t> reference = random_bytes(16 * 1024, seed);
  std::vector<std::uint8_t> version = reference;
  version.erase(version.begin() + 5000, version.begin() + 6000);
  EXPECT_EQ(encode_delta(reference, version),
            encode_delta(reference, version));
}

}  // namespace
}  // namespace cdc::corpus
