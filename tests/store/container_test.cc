#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "store/container_reader.h"
#include "store/container_store.h"
#include "store/container_writer.h"
#include "support/file.h"

namespace cdc::store {
namespace {

class ContainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process scratch dir: ctest -j runs each test of this fixture as
    // its own process, and a shared directory would be remove_all'd by a
    // concurrent sibling mid-test.
    dir_ = std::filesystem::temp_directory_path() /
           ("cdc_container_test." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::vector<std::uint8_t> payload_for(int seed, std::size_t size) {
  std::vector<std::uint8_t> out(size);
  for (std::size_t i = 0; i < size; ++i)
    out[i] = static_cast<std::uint8_t>(seed * 131 + i);
  return out;
}

TEST_F(ContainerTest, RoundTripMultipleStreams) {
  const std::string file = path("multi.cdcc");
  const runtime::StreamKey a{0, 1};
  const runtime::StreamKey b{3, 2};
  const runtime::StreamKey c{-1, 0};  // negative rank must survive zigzag
  {
    ContainerWriter writer(file);
    writer.append_frame(a, payload_for(1, 100));
    writer.append_frame(b, payload_for(2, 10));
    writer.append_frame(a, payload_for(3, 50));
    writer.append_frame(c, payload_for(4, 1));
    writer.append_frame(a, payload_for(5, 0));  // empty payloads are legal
    writer.seal();
    EXPECT_EQ(writer.stats().frames, 5u);
    EXPECT_EQ(writer.stats().payload_bytes, 161u);
  }

  const auto reader = ContainerReader::open(file);
  ASSERT_NE(reader, nullptr);
  EXPECT_TRUE(reader->index_ok());
  EXPECT_EQ(reader->keys().size(), 3u);

  auto expected_a = payload_for(1, 100);
  const auto more_a = payload_for(3, 50);
  expected_a.insert(expected_a.end(), more_a.begin(), more_a.end());
  EXPECT_EQ(reader->read_stream(a), expected_a);
  EXPECT_EQ(reader->read_stream(b), payload_for(2, 10));
  EXPECT_EQ(reader->read_stream(c), payload_for(4, 1));
  EXPECT_TRUE(reader->read_stream(runtime::StreamKey{9, 9}).empty());

  const StreamIndexEntry* entry = reader->find(a);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->frame_offsets.size(), 3u);
  EXPECT_EQ(entry->payload_bytes, 150u);

  const auto report = reader->verify();
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.frames_checked, 5u);
  EXPECT_EQ(report.payload_bytes, 161u);
}

TEST_F(ContainerTest, EmptyContainerIsValid) {
  const std::string file = path("empty.cdcc");
  {
    ContainerWriter writer(file);
    writer.seal();
  }
  const auto reader = ContainerReader::open(file);
  ASSERT_NE(reader, nullptr);
  EXPECT_TRUE(reader->index_ok());
  EXPECT_TRUE(reader->keys().empty());
  EXPECT_TRUE(reader->verify().ok);
}

TEST_F(ContainerTest, SealIsIdempotentAndDestructorSeals) {
  const std::string file = path("seal.cdcc");
  {
    ContainerWriter writer(file);
    writer.append_frame({0, 0}, payload_for(1, 8));
    writer.seal();
    writer.seal();
  }  // destructor seals again — must be a no-op
  const auto reader = ContainerReader::open(file);
  ASSERT_NE(reader, nullptr);
  EXPECT_TRUE(reader->verify().ok);
}

TEST_F(ContainerTest, WriterRefusesUncreatablePath) {
  EXPECT_DEATH(ContainerWriter(path("no_such_dir") + "/x/y.cdcc"),
               "cannot create record container");
}

TEST_F(ContainerTest, RepackPreservesContentAndDropsNothingWhenClean) {
  const std::string file = path("in.cdcc");
  const std::string out = path("out.cdcc");
  const runtime::StreamKey a{1, 1};
  const runtime::StreamKey b{2, 1};
  {
    ContainerWriter writer(file);
    for (int i = 0; i < 20; ++i)
      writer.append_frame(i % 3 == 0 ? b : a, payload_for(i, 30));
    writer.seal();
  }
  const auto result = repack_container(file, out);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.frames_kept, 20u);
  EXPECT_EQ(result.frames_dropped, 0u);

  const auto before = ContainerReader::open(file);
  const auto after = ContainerReader::open(out);
  ASSERT_NE(after, nullptr);
  EXPECT_TRUE(after->verify().ok);
  EXPECT_EQ(after->read_stream(a), before->read_stream(a));
  EXPECT_EQ(after->read_stream(b), before->read_stream(b));
}

TEST_F(ContainerTest, ContainerStoreRecordReopenReadsBack) {
  const std::string file = path("store.cdcc");
  const runtime::StreamKey a{0, 4};
  const runtime::StreamKey b{7, 4};
  {
    ContainerStore store(file);
    store.append(a, payload_for(1, 64));
    store.append(b, payload_for(2, 16));
    store.append(a, payload_for(3, 8));
    // The writer's index answers the sizes before sealing.
    EXPECT_EQ(store.total_bytes(), 88u);
    EXPECT_EQ(store.rank_bytes(0), 72u);
    store.seal();
  }
  const auto reopened = ContainerStore::open(file);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->keys().size(), 2u);
  auto expected_a = payload_for(1, 64);
  const auto more_a = payload_for(3, 8);
  expected_a.insert(expected_a.end(), more_a.begin(), more_a.end());
  EXPECT_EQ(reopened->read(a), expected_a);
  EXPECT_EQ(reopened->read(b), payload_for(2, 16));
  EXPECT_EQ(reopened->total_bytes(), 88u);
}

TEST_F(ContainerTest, ReopenedContainerStoreIsReadOnly) {
  const std::string file = path("ro.cdcc");
  {
    ContainerStore store(file);
    store.append({0, 0}, payload_for(1, 4));
    store.seal();
  }
  const auto reopened = ContainerStore::open(file);
  EXPECT_DEATH(reopened->append({0, 0}, payload_for(2, 4)),
               "read-only");
}

TEST_F(ContainerTest, OpenMissingFileFails) {
  std::string error;
  EXPECT_EQ(ContainerReader::open(path("nope.cdcc"), &error), nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

// A store that cannot reach its record aborts loudly; it never hands
// replay an empty record.
TEST_F(ContainerTest, ContainerStoreOpenOfMissingFileDies) {
  EXPECT_DEATH((void)ContainerStore::open(path("nope.cdcc")),
               "cannot open record container");
}

TEST_F(ContainerTest, ContainerStoreOpenOfTruncatedFileDies) {
  const std::string file = path("whole.cdcc");
  {
    ContainerStore store(file);
    for (int i = 0; i < 40; ++i)
      store.append({i % 4, 0}, payload_for(i, 64));
    store.seal();
  }
  ASSERT_GT(std::filesystem::file_size(file), 1000u);
  const std::string cut = path("cut.cdcc");
  std::filesystem::copy_file(file, cut);
  std::filesystem::resize_file(cut, 1000);  // keep the first 1,000 bytes
  EXPECT_DEATH((void)ContainerStore::open(cut), "container index corrupt");
}

// An intact index over a frame whose payload is damaged: open() checks
// every indexed frame, so the store refuses the file before any read.
TEST_F(ContainerTest, ContainerStoreOpenOfCorruptFrameDies) {
  const std::string file = path("flip.cdcc");
  {
    ContainerStore store(file);
    for (int i = 0; i < 6; ++i)
      store.append({i % 2, 0}, payload_for(i, 32));
    store.seal();
  }
  std::vector<std::uint8_t> bytes = support::read_file(file).value();
  {
    const auto reader = ContainerReader::open(file);
    ASSERT_NE(reader, nullptr);
    const auto frames = reader->scan_good_frames();
    ASSERT_EQ(frames.size(), 6u);
    // The last payload byte of the fourth frame, just before its CRC.
    bytes[frames[3].offset + frames[3].frame_size - 4 - 1] ^= 0x5A;
  }
  const std::string hurt = path("hurt.cdcc");
  std::ofstream(hurt, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(ContainerReader::open(hurt)->index_ok());
  EXPECT_DEATH((void)ContainerStore::open(hurt), "container frame corrupt");
}

TEST_F(ContainerTest, RecordingContainerStoreRefusesReads) {
  ContainerStore store(path("recording.cdcc"));
  store.append({0, 0}, payload_for(1, 4));
  EXPECT_DEATH((void)store.read({0, 0}),
               "seal the container and open it to read");
  EXPECT_DEATH((void)store.read_prefix({0, 0}, 1),
               "seal the container and open it to read");
}

// The same appends into a ContainerStore and a MemoryStore: the recording
// store's keys and sizes come from the writer's index, the opened store's
// reads from the container file, and both must agree with the in-memory
// record. Streams whose every frame carried epoch metadata also serve
// epoch prefixes by seeking. Every stream is read back from several
// threads at once, as replay's simulator workers do.
TEST_F(ContainerTest, ContainerStoreMatchesMemoryStore) {
  const std::string file = path("differential.cdcc");
  const runtime::StreamKey epoch_keys[] = {{0, 1}, {-1, 0}};
  const runtime::StreamKey plain_key{3, 2};
  const runtime::StreamKey mixed_key{7, 4};  // epochs, then one without
  runtime::MemoryStore memory;
  std::map<runtime::StreamKey, std::vector<std::vector<std::uint8_t>>>
      appended;
  {
    ContainerStore container(file);
    const auto both = [&](const runtime::StreamKey& key,
                          const std::vector<std::uint8_t>& bytes,
                          bool with_epoch) {
      memory.append(key, bytes);
      if (with_epoch)
        container.append_epoch(key, bytes,
                               runtime::EpochMeta{bytes.size(), 1});
      else
        container.append(key, bytes);
      appended[key].push_back(bytes);
    };
    for (int i = 0; i < 60; ++i) {
      const std::size_t size = static_cast<std::size_t>((i * 37) % 97);
      both(epoch_keys[i % 2], payload_for(i, size), true);
      if (i % 3 == 0) both(plain_key, payload_for(i + 1, size / 2), false);
      if (i % 5 == 0) both(mixed_key, payload_for(i + 2, 9), i < 50);
    }
    EXPECT_EQ(container.keys(), memory.keys());
    EXPECT_EQ(container.total_bytes(), memory.total_bytes());
    for (const minimpi::Rank rank : {-1, 0, 3, 5, 7})
      EXPECT_EQ(container.rank_bytes(rank), memory.rank_bytes(rank)) << rank;
    container.seal();
  }

  const auto opened = ContainerStore::open(file);
  EXPECT_EQ(opened->keys(), memory.keys());
  EXPECT_EQ(opened->total_bytes(), memory.total_bytes());
  for (const minimpi::Rank rank : {-1, 0, 3, 5, 7})
    EXPECT_EQ(opened->rank_bytes(rank), memory.rank_bytes(rank)) << rank;
  std::map<runtime::StreamKey, std::vector<std::uint8_t>> first_three;
  for (const runtime::StreamKey& key : memory.keys()) {
    const std::vector<std::uint8_t> whole = memory.read(key);
    EXPECT_EQ(opened->read(key), whole);
    const auto& frames = appended.at(key);
    const bool seekable = key != plain_key && key != mixed_key;
    std::vector<std::uint8_t> prefix;
    for (std::uint64_t hi = 0; hi <= frames.size() + 1; ++hi) {
      // Without an epoch index the prefix read falls back to the stream.
      const std::vector<std::uint8_t>& expected = seekable ? prefix : whole;
      EXPECT_EQ(opened->read_prefix(key, hi), expected)
          << "stream (" << key.rank << "," << key.callsite << ") hi " << hi;
      if (hi == 3) first_three[key] = expected;
      if (hi < frames.size())
        prefix.insert(prefix.end(), frames[hi].begin(), frames[hi].end());
    }
  }

  std::vector<std::thread> readers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t)
    readers.emplace_back([&] {
      for (const runtime::StreamKey& key : memory.keys())
        if (opened->read(key) != memory.read(key) ||
            opened->read_prefix(key, 3) != first_three.at(key))
          mismatches.fetch_add(1);
    });
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace cdc::store
