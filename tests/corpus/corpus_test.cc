// Corpus end-to-end: members round-trip bit-identically through every
// encoding (raw / gzip / delta), reference election and pinning,
// cross-member dedup, the RecordStore ingest adapter, and the salvage
// contract (crash -> repack -> degraded open), including manifests that
// carry retired encoding tags.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "compress/crc32.h"
#include "corpus/corpus.h"
#include "runtime/storage.h"
#include "store/container_reader.h"
#include "store/container_writer.h"
#include "support/binary.h"
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
// read_stream and load_member.
void expect_member_equals(const CorpusReader& reader, std::uint32_t member,
                          const StreamMap& expected) {
  std::vector<runtime::StreamKey> keys;
  for (const auto& [key, bytes] : expected) keys.push_back(key);
  EXPECT_EQ(reader.member_keys(member), keys);
  for (const auto& [key, bytes] : expected) {
    const auto back = reader.read_stream(member, key);
    ASSERT_TRUE(back.has_value()) << "member " << member;
    EXPECT_EQ(*back, bytes) << "member " << member;
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

  // Low-entropy stream: gzip crushes it -> gzip.
  add("text", std::vector<std::uint8_t>(10 * 1024, 'a'));

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
  EXPECT_GE(stats.by_encoding[static_cast<std::size_t>(E::kDeltaCorrecting)],
            1u);

  corpus.seal();
  std::string error;
  const auto reader = CorpusReader::open(file, &error);
  ASSERT_NE(reader, nullptr) << error;
  for (std::uint32_t m = 0; m < originals.size(); ++m)
    expect_member_equals(*reader, m, originals[m]);
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

TEST_F(CorpusTest, LostReferenceDegradesOnlyItsFamily) {
  const std::string file = path("degraded.cdcc");
  // fam-a: a reference member (random bytes, so stored raw) and a
  // near-identical follower stored as a delta against it. fam-b: a small
  // independent member. fam-c: three members of unrelated random bytes,
  // so every stream of the family is stored raw.
  const runtime::StreamKey key{0, 1};
  const StreamMap reference{{key, random_bytes(16 * 1024, 70)}};
  StreamMap follower = reference;
  follower[key][100] ^= 0xff;
  const StreamMap other{{key, random_bytes(512, 71)}};
  const StreamMap raw_family[] = {{{key, random_bytes(4 * 1024, 72)}},
                                  {{key, random_bytes(4 * 1024, 73)}},
                                  {{key, random_bytes(4 * 1024, 74)}}};
  {
    Corpus corpus(file);
    auto add = [&](const std::string& family, const StreamMap& streams) {
      runtime::MemoryStore record;
      fill_store(record, streams);
      corpus.add_member(family, "m", record);
    };
    add("fam-a", reference);
    add("fam-a", follower);
    add("fam-b", other);
    for (const StreamMap& member : raw_family) add("fam-c", member);
    corpus.seal();
    ASSERT_EQ(corpus.stats().by_encoding[static_cast<std::size_t>(
                  MemberEncoding::kDeltaCorrecting)],
              1u);
  }

  // Corrupt the manifest frames of both families' references (members 0
  // and 3): each carries its raw stream, whose first bytes appear nowhere
  // else in the file.
  std::vector<char> bytes;
  {
    std::ifstream in(file, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  for (const StreamMap* lost : {&reference, &raw_family[0]}) {
    const std::vector<std::uint8_t>& raw = lost->at(key);
    const auto hit = std::search(
        bytes.begin(), bytes.end(), reinterpret_cast<const char*>(raw.data()),
        reinterpret_cast<const char*>(raw.data()) + 64);
    ASSERT_NE(hit, bytes.end());
    *hit ^= 0x5a;
  }
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Repack drops the damaged frames; the corpus reopens without members 0
  // and 3. Member 0's delta follower is flagged unreadable; fam-b's member
  // and fam-c's raw members stand alone and stay readable.
  const std::string repacked = path("degraded_repacked.cdcc");
  const store::RepackResult result = store::repack_container(file, repacked);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE(result.frames_dropped, 2u);

  std::string error;
  const auto reader = CorpusReader::open(repacked, &error);
  ASSERT_NE(reader, nullptr) << error;
  ASSERT_EQ(reader->members().size(), 4u);
  EXPECT_EQ(reader->member(0), nullptr);
  EXPECT_EQ(reader->member(3), nullptr);
  const CorpusReader::Member* lost = reader->member(1);
  ASSERT_NE(lost, nullptr);
  EXPECT_FALSE(lost->readable);
  EXPECT_EQ(lost->damage, "reference member 0 lost to salvage");
  EXPECT_FALSE(reader->read_stream(1, key).has_value());
  runtime::MemoryStore sink;
  EXPECT_FALSE(reader->load_member(1, sink));
  ASSERT_NE(reader->member(2), nullptr);
  EXPECT_TRUE(reader->member(2)->readable);
  expect_member_equals(*reader, 2, other);
  for (const std::uint32_t ordinal : {4u, 5u}) {
    const CorpusReader::Member* raw = reader->member(ordinal);
    ASSERT_NE(raw, nullptr);
    EXPECT_TRUE(raw->readable) << raw->damage;
    expect_member_equals(*reader, ordinal, raw_family[ordinal - 3]);
  }
}

TEST_F(CorpusTest, RetiredEncodingTagsOpenUnreadable) {
  // Tags 1 (chunk ordinals) and 2 (onepass delta) are no longer read.
  // Manifests carrying them are written by hand; those members must open
  // unreadable while the members around them stay readable.
  const std::string file = path("retired.cdcc");
  const runtime::StreamKey key{0, 1};
  const std::vector<std::uint8_t> raw = random_bytes(256, 90);
  auto manifest = [&](std::uint32_t ordinal, std::uint8_t tag,
                      std::span<const std::uint8_t> body) {
    support::ByteWriter out;
    out.u8('M');
    out.u8(1);  // manifest format version
    const std::string family = "fam";
    out.sized_bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(family.data()), family.size()));
    out.sized_bytes(std::span<const std::uint8_t>{});  // unnamed
    // A tag-2 (delta) member points at member 0; the rest stand alone.
    out.u8(tag == 2 ? 0 : 0x01);        // reference flag
    out.varint(tag == 2 ? 0 : ordinal);  // delta_ref
    out.varint(1);                       // one stream
    out.svarint(key.rank);
    out.varint(key.callsite);
    out.varint(raw.size());
    out.u32(compress::crc32(raw));
    out.u8(tag);
    out.bytes(body);
    return std::move(out).take();
  };
  support::ByteWriter sized_raw;
  sized_raw.sized_bytes(raw);
  support::ByteWriter chunk_ordinals;  // one chunk, ordinal 0
  chunk_ordinals.varint(1);
  chunk_ordinals.varint(0);
  support::ByteWriter sized_delta;  // tag 2 body: a length-prefixed blob
  sized_delta.sized_bytes(random_bytes(40, 91));
  {
    store::ContainerWriter writer(file);
    const std::span<const std::uint8_t> bodies[] = {
        sized_raw.view(), chunk_ordinals.view(), sized_delta.view(),
        sized_raw.view()};
    const std::uint8_t tags[] = {5, 1, 2, 5};
    for (std::uint32_t m = 0; m < 4; ++m)
      writer.append_frame({kCorpusMemberRank, m},
                          manifest(m, tags[m], bodies[m]));
    writer.seal();
  }

  std::string error;
  const auto reader = CorpusReader::open(file, &error);
  ASSERT_NE(reader, nullptr) << error;
  ASSERT_EQ(reader->members().size(), 4u);
  for (const std::uint32_t retired : {1u, 2u}) {
    const CorpusReader::Member* member = reader->member(retired);
    ASSERT_NE(member, nullptr);
    EXPECT_FALSE(member->readable) << "member " << retired;
    // Member ordinal == its tag here.
    EXPECT_EQ(member->damage,
              "stream encoding " + std::to_string(retired) + " unknown");
    EXPECT_FALSE(reader->read_stream(retired, key).has_value());
  }
  for (const std::uint32_t intact : {0u, 3u}) {
    ASSERT_TRUE(reader->member(intact)->readable)
        << reader->member(intact)->damage;
    expect_member_equals(*reader, intact, StreamMap{{key, raw}});
  }
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

// Golden bytes of one sealed corpus: a reference member and three
// near-identical followers (point edits and one insertion per stream),
// drawn only from Xoshiro256::bounded. The FNV-1a of the sealed file is
// pinned, so a change that must leave corpus output alone can show it did.
using CorpusGoldenBytes = CorpusTest;

TEST_F(CorpusGoldenBytes, SeededFamily) {
  support::Xoshiro256 rng(2115);
  const auto draw = [&](std::size_t n, std::uint64_t alphabet) {
    std::vector<std::uint8_t> bytes(n);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.bounded(alphabet));
    return bytes;
  };
  StreamMap reference;
  reference[{0, 1}] = draw(8 * 1024, 4);     // low entropy: gzip pays
  reference[{1, 8}] = draw(4 * 1024, 256);   // incompressible: raw
  reference[{2, 15}] = draw(6 * 1024, 16);

  const std::string file = path("golden.cdcc");
  Corpus corpus(file);
  for (int m = 0; m < 4; ++m) {
    StreamMap streams = reference;
    if (m > 0) {
      for (auto& [key, bytes] : streams) {
        for (int e = 0; e < 4; ++e)
          bytes[rng.bounded(bytes.size())] ^=
              static_cast<std::uint8_t>(1 + rng.bounded(255));
        const std::vector<std::uint8_t> inserted = draw(12, 256);
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                         rng.bounded(bytes.size())),
                     inserted.begin(), inserted.end());
      }
    }
    runtime::MemoryStore record;
    fill_store(record, streams);
    corpus.add_member("mcb", "seed-" + std::to_string(m), record);
  }
  using E = MemberEncoding;
  const CorpusStats& stats = corpus.stats();
  EXPECT_GE(stats.by_encoding[static_cast<std::size_t>(E::kDeltaCorrecting)],
            1u);
  EXPECT_GE(stats.by_encoding[static_cast<std::size_t>(E::kSelfGzip)], 1u);
  EXPECT_GE(stats.by_encoding[static_cast<std::size_t>(E::kRaw)], 1u);
  corpus.seal();

  std::ifstream in(file, std::ios::binary);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c; in.get(c);) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  EXPECT_EQ(h, 0xa0458ac704ad5430ull);
}

}  // namespace
}  // namespace cdc::corpus
