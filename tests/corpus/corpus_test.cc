// Corpus end-to-end: members round-trip bit-identically through every
// encoding (raw / gzip / chunks / delta, fresh and in-place), reference
// election and pinning, cross-member dedup, the RecordStore ingest
// adapter, and the salvage contract (crash -> repack -> degraded open).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "runtime/storage.h"
#include "store/container_reader.h"
#include "support/rng.h"

namespace cdc::corpus {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.bounded(256));
  return bytes;
}

class CorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cdc_corpus_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

using StreamMap =
    std::map<runtime::StreamKey, std::vector<std::uint8_t>>;

// A member record as plain bytes: `streams` keys, `bytes` bytes each.
StreamMap make_streams(int streams, std::size_t bytes, std::uint64_t seed) {
  StreamMap map;
  for (int i = 0; i < streams; ++i) {
    const runtime::StreamKey key{i, static_cast<std::uint32_t>(i) * 7 + 1};
    map[key] = random_bytes(bytes, seed * 100 + static_cast<std::uint64_t>(i));
  }
  return map;
}

void fill_store(runtime::MemoryStore& store, const StreamMap& streams) {
  for (const auto& [key, bytes] : streams) store.append(key, bytes);
}

// MemoryStore is immovable; tests that need "a record" keep the StreamMap
// and materialize a store on demand.
void make_record_into(runtime::MemoryStore& store, int streams,
                      std::size_t bytes, std::uint64_t seed) {
  fill_store(store, make_streams(streams, bytes, seed));
}

// Verifies `member` of the reopened corpus equals `expected`, via
// read_stream (both apply paths) and load_member.
void expect_member_equals(const CorpusReader& reader, std::uint32_t member,
                          const StreamMap& expected) {
  std::vector<runtime::StreamKey> keys;
  for (const auto& [key, bytes] : expected) keys.push_back(key);
  EXPECT_EQ(reader.member_keys(member), keys);
  for (const auto& [key, bytes] : expected) {
    const auto fresh = reader.read_stream(member, key);
    ASSERT_TRUE(fresh.has_value()) << "member " << member;
    EXPECT_EQ(*fresh, bytes) << "member " << member;
    const auto in_place = reader.read_stream(member, key, /*in_place=*/true);
    ASSERT_TRUE(in_place.has_value()) << "member " << member;
    EXPECT_EQ(*in_place, *fresh) << "member " << member << " (in place)";
  }
  runtime::MemoryStore loaded;
  ASSERT_TRUE(reader.load_member(member, loaded));
  for (const auto& [key, bytes] : expected)
    EXPECT_EQ(loaded.read(key), bytes);
}

TEST_F(CorpusTest, NearIdenticalMembersRoundTripAndDedup) {
  const std::string file = path("family.cdcc");
  constexpr int kMembers = 6;
  std::vector<StreamMap> originals;

  Corpus corpus(file);
  for (int m = 0; m < kMembers; ++m) {
    // Same base content for every member (seed 1), then a few per-member
    // point edits — the near-identical corpus shape of repeated runs.
    StreamMap streams = make_streams(/*streams=*/3, /*bytes=*/32 * 1024,
                                     /*seed=*/1);
    if (m > 0) {
      support::Xoshiro256 rng(static_cast<std::uint64_t>(m));
      for (auto& [key, bytes] : streams)
        for (int e = 0; e < 5; ++e)
          bytes[rng.bounded(bytes.size())] ^=
              static_cast<std::uint8_t>(1 + rng.bounded(255));
    }
    runtime::MemoryStore record;
    fill_store(record, streams);
    EXPECT_EQ(corpus.add_member("taskfarm", "seed-" + std::to_string(m),
                                record),
              static_cast<std::uint32_t>(m));
    originals.push_back(std::move(streams));
  }
  EXPECT_EQ(corpus.stats().members, static_cast<std::uint64_t>(kMembers));
  // Followers are tiny deltas: the corpus must be far smaller than the sum
  // of its members' raw bytes.
  EXPECT_GT(corpus.stats().dedup_ratio(), 3.0);
  corpus.seal();

  std::string error;
  const auto reader = CorpusReader::open(file, &error);
  ASSERT_NE(reader, nullptr) << error;
  ASSERT_EQ(reader->members().size(), static_cast<std::size_t>(kMembers));
  EXPECT_TRUE(reader->members()[0].is_reference);
  for (int m = 0; m < kMembers; ++m) {
    const CorpusReader::Member& member = reader->members()[m];
    EXPECT_TRUE(member.readable) << member.damage;
    EXPECT_EQ(member.family, "taskfarm");
    EXPECT_EQ(member.delta_ref, 0u);  // all point at the elected reference
    expect_member_equals(*reader, static_cast<std::uint32_t>(m),
                         originals[m]);
  }
  EXPECT_GT(reader->stats().dedup_ratio(), 3.0);
  EXPECT_GT(reader->file_bytes(), 0u);
}

TEST_F(CorpusTest, EncodingSelectionPicksTheCheapestForm) {
  const std::string file = path("encodings.cdcc");
  Corpus corpus(file);
  const runtime::StreamKey key{0, 1};
  std::vector<StreamMap> originals;
  auto add = [&](const std::string& family,
                 std::vector<std::uint8_t> bytes) {
    StreamMap streams;
    streams[key] = std::move(bytes);
    runtime::MemoryStore record;
    fill_store(record, streams);
    corpus.add_member(family,
                      std::string("t").append(std::to_string(originals.size())),
                      record);
    originals.push_back(std::move(streams));
  };

  // Tiny stream: every header loses to the bytes themselves -> raw.
  add("tiny", {1, 2, 3, 4});

  // Low-entropy stream: gzip crushes it, chunking cannot -> gzip.
  add("text", std::vector<std::uint8_t>(10 * 1024, 'a'));

  // A 48 KiB block repeated 4 times: repeats sit far beyond DEFLATE's
  // 32 KiB window, but content-defined chunks dedup them -> chunks.
  const std::vector<std::uint8_t> block = random_bytes(48 * 1024, 9);
  std::vector<std::uint8_t> repeated;
  for (int i = 0; i < 4; ++i)
    repeated.insert(repeated.end(), block.begin(), block.end());
  add("far-repeat", repeated);

  // Second member of a family, near-identical -> delta vs the reference.
  std::vector<std::uint8_t> base = random_bytes(32 * 1024, 21);
  add("family", base);
  std::vector<std::uint8_t> edited = base;
  edited[100] ^= 0xff;
  add("family", edited);

  const CorpusStats& stats = corpus.stats();
  using E = MemberEncoding;
  EXPECT_GE(stats.by_encoding[static_cast<std::size_t>(E::kRaw)], 1u);
  EXPECT_GE(stats.by_encoding[static_cast<std::size_t>(E::kSelfGzip)], 1u);
  EXPECT_GE(stats.by_encoding[static_cast<std::size_t>(E::kChunks)], 1u);
  EXPECT_GE(stats.by_encoding[static_cast<std::size_t>(E::kDeltaCorrecting)],
            1u);

  corpus.seal();
  std::string error;
  const auto reader = CorpusReader::open(file, &error);
  ASSERT_NE(reader, nullptr) << error;
  for (std::uint32_t m = 0; m < originals.size(); ++m)
    expect_member_equals(*reader, m, originals[m]);
}

TEST_F(CorpusTest, ChunksDedupAcrossFamilies) {
  // Family A's member is chunk-encoded (far repeats); family B's member
  // carries one copy of the same block, which must intern as pure hits.
  const std::string file = path("crossfam.cdcc");
  Corpus corpus(file);
  const runtime::StreamKey key{0, 1};
  const std::vector<std::uint8_t> block = random_bytes(48 * 1024, 31);
  std::vector<std::uint8_t> repeated;
  for (int i = 0; i < 4; ++i)
    repeated.insert(repeated.end(), block.begin(), block.end());
  StreamMap a{{key, repeated}};
  StreamMap b{{key, block}};
  runtime::MemoryStore store_a;
  fill_store(store_a, a);
  corpus.add_member("fam-a", "m0", store_a);
  const std::uint64_t stored_before = corpus.stats().stored_bytes;

  runtime::MemoryStore store_b;
  fill_store(store_b, b);
  corpus.add_member("fam-b", "m0", store_b);

  EXPECT_GT(corpus.stats().chunk_hits, 0u);
  // The second member added almost nothing: its chunks already existed.
  EXPECT_LT(corpus.stats().stored_bytes - stored_before, block.size() / 8);

  corpus.seal();
  std::string error;
  const auto reader = CorpusReader::open(file, &error);
  ASSERT_NE(reader, nullptr) << error;
  expect_member_equals(*reader, 0, a);
  expect_member_equals(*reader, 1, b);
}

TEST_F(CorpusTest, PinningReElectsTheReferenceForLaterMembers) {
  const std::string file = path("pinning.cdcc");
  Corpus corpus(file);
  std::vector<StreamMap> originals;
  for (int m = 0; m < 4; ++m) {
    StreamMap streams =
        make_streams(1, 16 * 1024, 40 + static_cast<std::uint64_t>(m));
    runtime::MemoryStore record;
    fill_store(record, streams);
    // Member 2 is pinned: members 0-1 delta against 0, member 3 against 2.
    corpus.add_member("fam", std::string("m").append(std::to_string(m)), record,
                      /*pin_reference=*/m == 2);
    originals.push_back(std::move(streams));
  }
  corpus.seal();

  std::string error;
  const auto reader = CorpusReader::open(file, &error);
  ASSERT_NE(reader, nullptr) << error;
  ASSERT_EQ(reader->members().size(), 4u);
  EXPECT_TRUE(reader->members()[0].is_reference);
  EXPECT_FALSE(reader->members()[1].is_reference);
  EXPECT_TRUE(reader->members()[2].is_reference);
  EXPECT_FALSE(reader->members()[3].is_reference);
  EXPECT_EQ(reader->members()[1].delta_ref, 0u);
  EXPECT_EQ(reader->members()[3].delta_ref, 2u);
  for (std::uint32_t m = 0; m < 4; ++m)
    expect_member_equals(*reader, m, originals[m]);
}

TEST_F(CorpusTest, CorpusStoreAdaptsTheRecordStoreInterface) {
  const std::string file = path("adapter.cdcc");
  Corpus corpus(file);
  CorpusStore store(&corpus, "fam", "m0");

  const std::vector<std::uint8_t> bytes = random_bytes(1000, 50);
  store.append({2, 9}, bytes);
  store.append({2, 9}, bytes);  // appends concatenate, like any store
  EXPECT_EQ(store.total_bytes(), 2000u);
  EXPECT_EQ(store.read({2, 9}).size(), 2000u);
  EXPECT_EQ(store.keys().size(), 1u);
  EXPECT_EQ(store.rank_bytes(2), 2000u);
  store.sync();  // must not commit the member

  EXPECT_EQ(store.seal_member(), 0u);
  EXPECT_EQ(store.total_bytes(), 0u);  // buffer cleared for the next member
  store.append({2, 9}, bytes);
  EXPECT_EQ(store.seal_member(), 1u);
  EXPECT_EQ(corpus.stats().members, 2u);
  corpus.seal();

  std::string error;
  const auto reader = CorpusReader::open(file, &error);
  ASSERT_NE(reader, nullptr) << error;
  const auto first = reader->read_stream(0, {2, 9});
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->size(), 2000u);
}

TEST_F(CorpusTest, CrashedCorpusRequiresRepackThenReopens) {
  const std::string file = path("crashed.cdcc");
  const StreamMap streams = make_streams(2, 8 * 1024, 60);
  {
    Corpus corpus(file);
    runtime::MemoryStore record;
    fill_store(record, streams);
    corpus.add_member("fam", "m0", record);
    corpus.flush();  // m0's frames are durable
    runtime::MemoryStore extra;
    make_record_into(extra, 2, 8 * 1024, 61);
    corpus.add_member("fam", "m1", extra);
    corpus.abandon();  // crash: no index, m1 may be lost in the tail
  }

  std::string error;
  EXPECT_EQ(CorpusReader::open(file, &error), nullptr);
  EXPECT_NE(error.find("repack"), std::string::npos) << error;

  const std::string repacked = path("repacked.cdcc");
  const store::RepackResult result = store::repack_container(file, repacked);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.frames_kept, 0u);

  const auto reader = CorpusReader::open(repacked, &error);
  ASSERT_NE(reader, nullptr) << error;
  ASSERT_GE(reader->members().size(), 1u);  // the flushed member survived
  EXPECT_TRUE(reader->members()[0].readable) << reader->members()[0].damage;
  expect_member_equals(*reader, 0, streams);
}

TEST_F(CorpusTest, LostChunkDegradesOnlyTheMembersUsingIt) {
  const std::string file = path("degraded.cdcc");
  // fam-a: chunk-encoded member (the distinctive block content lives only
  // in its chunk frames). fam-b: small independent member.
  const runtime::StreamKey key{0, 1};
  const std::vector<std::uint8_t> block = random_bytes(48 * 1024, 70);
  std::vector<std::uint8_t> repeated;
  for (int i = 0; i < 4; ++i)
    repeated.insert(repeated.end(), block.begin(), block.end());
  const StreamMap a{{key, repeated}};
  const StreamMap b{{key, random_bytes(512, 71)}};
  {
    Corpus corpus(file);
    runtime::MemoryStore store_a;
    fill_store(store_a, a);
    corpus.add_member("fam-a", "m0", store_a);
    runtime::MemoryStore store_b;
    fill_store(store_b, b);
    corpus.add_member("fam-b", "m0", store_b);
    corpus.seal();
    ASSERT_GT(
        corpus.stats().by_encoding[static_cast<std::size_t>(
            MemberEncoding::kChunks)],
        0u);
  }

  // Corrupt the first chunk frame: its payload starts with the block's
  // first bytes, which appear nowhere else in the file.
  std::vector<char> bytes;
  {
    std::ifstream in(file, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const auto hit = std::search(
      bytes.begin(), bytes.end(),
      reinterpret_cast<const char*>(block.data()),
      reinterpret_cast<const char*>(block.data()) + 64);
  ASSERT_NE(hit, bytes.end());
  *hit ^= 0x5a;
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Repack drops the damaged frame; the corpus reopens with fam-a's
  // member flagged unreadable and fam-b's member intact.
  const std::string repacked = path("degraded_repacked.cdcc");
  const store::RepackResult result = store::repack_container(file, repacked);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE(result.frames_dropped, 1u);

  std::string error;
  const auto reader = CorpusReader::open(repacked, &error);
  ASSERT_NE(reader, nullptr) << error;
  ASSERT_EQ(reader->members().size(), 2u);
  EXPECT_FALSE(reader->members()[0].readable);
  EXPECT_FALSE(reader->members()[0].damage.empty());
  EXPECT_FALSE(reader->read_stream(0, key).has_value());
  runtime::MemoryStore sink;
  EXPECT_FALSE(reader->load_member(0, sink));
  EXPECT_TRUE(reader->members()[1].readable);
  expect_member_equals(*reader, 1, b);
}

TEST_F(CorpusTest, ReaderStatsMatchTheWriterView) {
  const std::string file = path("stats.cdcc");
  runtime::MemoryStore record;
  make_record_into(record, 2, 4 * 1024, 80);
  CorpusStats written;
  {
    Corpus corpus(file);
    corpus.add_member("fam", "m0", record);
    corpus.add_member("fam", "m1", record);  // identical: maximal dedup
    corpus.seal();
    written = corpus.stats();
  }
  std::string error;
  const auto reader = CorpusReader::open(file, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_EQ(reader->stats().members, written.members);
  EXPECT_EQ(reader->stats().streams, written.streams);
  EXPECT_EQ(reader->stats().raw_bytes, written.raw_bytes);
  EXPECT_EQ(reader->stats().families, written.families);
}

}  // namespace
}  // namespace cdc::corpus
