// The detection guarantee of the container format (ISSUE acceptance
// criterion): corrupting ANY single byte of a sealed container must be
// detected by verify(), and for bytes inside a data frame the report must
// identify the offending stream and frame. The main test literally flips
// every byte of a small container, one at a time.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "compress/crc32.h"
#include "store/container_reader.h"
#include "store/container_store.h"
#include "store/container_writer.h"
#include "support/binary.h"

namespace cdc::store {
namespace {

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process scratch dir: ctest -j runs each test of this fixture as
    // its own process, and a shared directory would be remove_all'd by a
    // concurrent sibling mid-test.
    dir_ = std::filesystem::temp_directory_path() /
           ("cdc_corruption_test." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Writes a small container with three streams and five frames.
void build_sample(const std::string& file) {
  ContainerWriter writer(file);
  writer.append_frame({0, 1},
                      std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8});
  writer.append_frame({2, 1}, std::vector<std::uint8_t>{10, 20, 30});
  writer.append_frame({0, 1}, std::vector<std::uint8_t>{9, 9, 9, 9});
  writer.append_frame(
      {-1, 3}, std::vector<std::uint8_t>{0xAA, 0xBB, 0xCC, 0xDD, 0xEE});
  writer.append_frame({2, 1}, std::vector<std::uint8_t>{42});
  writer.seal();
}

// The same five frames, each with its epoch metadata, so the sealed
// container carries an epoch section between the frames and the index.
void build_epoch_sample(const std::string& file) {
  ContainerWriter writer(file);
  writer.append_frame({0, 1},
                      std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8},
                      runtime::EpochMeta{3, 1});
  writer.append_frame({2, 1}, std::vector<std::uint8_t>{10, 20, 30},
                      runtime::EpochMeta{5, 0});
  writer.append_frame({0, 1}, std::vector<std::uint8_t>{9, 9, 9, 9},
                      runtime::EpochMeta{2, 4});
  writer.append_frame(
      {-1, 3}, std::vector<std::uint8_t>{0xAA, 0xBB, 0xCC, 0xDD, 0xEE},
      runtime::EpochMeta{6, 0});
  writer.append_frame({2, 1}, std::vector<std::uint8_t>{42},
                      runtime::EpochMeta{1, 1});
  writer.seal();
}

TEST_F(CorruptionTest, EverySingleByteFlipIsDetected) {
  const std::string clean_path = path("clean.cdcc");
  build_sample(clean_path);
  const std::vector<std::uint8_t> clean = read_file(clean_path);
  ASSERT_GT(clean.size(), kContainerHeaderSize + kContainerFooterSize);

  // Map each data-region byte to the frame that owns it, using the clean
  // container's own index: frames tile [header, data_end) contiguously.
  const auto reader = ContainerReader::open(clean_path);
  ASSERT_NE(reader, nullptr);
  ASSERT_TRUE(reader->index_ok());
  const auto frames = reader->scan_good_frames();
  ASSERT_EQ(frames.size(), 5u);
  // data_end = file_size - footer - index_len (footer: crc u32 | len u64 |
  // magic u8[8], all little-endian).
  std::uint64_t index_len = 0;
  for (int b = 7; b >= 0; --b)
    index_len = (index_len << 8) | clean[clean.size() - 16 + b];
  const std::uint64_t data_end =
      clean.size() - kContainerFooterSize - index_len;
  ASSERT_EQ(frames.front().offset, kContainerHeaderSize);

  const std::string mutated_path = path("mutated.cdcc");
  for (std::size_t flip = 0; flip < clean.size(); ++flip) {
    std::vector<std::uint8_t> mutated = clean;
    mutated[flip] ^= 0xA5;
    write_file(mutated_path, mutated);

    const auto damaged = ContainerReader::open(mutated_path);
    ASSERT_NE(damaged, nullptr) << "open must tolerate damage, byte " << flip;
    const VerifyReport report = damaged->verify();
    EXPECT_FALSE(report.ok) << "flip of byte " << flip << " went undetected";

    if (flip < kContainerHeaderSize || flip >= data_end) continue;

    // Data-frame byte: the report must name the stream and frame that own
    // this offset (later frames may incur follow-on defects; that's fine).
    const ContainerReader::GoodFrame* owner = nullptr;
    for (const auto& frame : frames)
      if (frame.offset <= flip) owner = &frame;
    ASSERT_NE(owner, nullptr);
    bool identified = false;
    for (const FrameDefect& defect : report.bad_frames)
      identified |= defect.key_known && defect.key == owner->key &&
                    defect.seq == owner->seq;
    EXPECT_TRUE(identified)
        << "flip of frame byte " << flip << " not attributed to stream ("
        << owner->key.rank << "," << owner->key.callsite << ") frame "
        << owner->seq << "; report: " << report.summary();
  }
}

TEST_F(CorruptionTest, TruncationIsDetected) {
  const std::string clean_path = path("clean.cdcc");
  build_sample(clean_path);
  const std::vector<std::uint8_t> clean = read_file(clean_path);

  const std::string cut_path = path("cut.cdcc");
  // Every proper prefix is either unopenable or fails verification.
  for (std::size_t keep : {clean.size() - 1, clean.size() - 7,
                           clean.size() / 2, kContainerHeaderSize + 3,
                           std::size_t{4}, std::size_t{0}}) {
    write_file(cut_path,
               {clean.begin(), clean.begin() + static_cast<long>(keep)});
    std::string error;
    const auto damaged = ContainerReader::open(cut_path, &error);
    if (damaged == nullptr) {
      EXPECT_FALSE(error.empty());
      continue;
    }
    EXPECT_FALSE(damaged->verify().ok) << "truncated to " << keep;
  }
}

TEST_F(CorruptionTest, RepackDropsExactlyTheBadFrameAndVerifiesClean) {
  const std::string clean_path = path("clean.cdcc");
  build_sample(clean_path);
  std::vector<std::uint8_t> bytes = read_file(clean_path);

  // Corrupt one payload byte of the second frame ({2,1} seq 0).
  const auto reader = ContainerReader::open(clean_path);
  ASSERT_NE(reader, nullptr);
  const auto frames = reader->scan_good_frames();
  ASSERT_EQ(frames.size(), 5u);
  // Frames tile the data region, so frame 1 ends where frame 2 begins;
  // its last payload byte sits right before the trailing crc32.
  const std::size_t frame_end = static_cast<std::size_t>(frames[2].offset);
  const std::size_t victim_payload_byte = frame_end - 4 - 1;  // last payload
  bytes[victim_payload_byte] ^= 0xFF;
  const std::string hurt_path = path("hurt.cdcc");
  write_file(hurt_path, bytes);
  // The same damage with the footer torn: no index, so the sequential
  // scan steps over the bad frame and finds the rest; the index behind
  // them still lists exactly those frames, so the scan ends there.
  std::vector<std::uint8_t> torn = bytes;
  torn.resize(torn.size() - 6);
  const std::string torn_path = path("hurt_torn.cdcc");
  write_file(torn_path, torn);
  // No footer at all, and the last frame's ({2,1} seq 1) payload length
  // grown by 8: the frame still parses, fails its CRC, and the scan stops
  // where the frame's wrong length puts it.
  std::vector<std::uint8_t> indexless = bytes;
  indexless.resize(indexless.size() - kContainerFooterSize);
  indexless[static_cast<std::size_t>(frames[4].offset) + 4] ^= 0x08;
  const std::string indexless_path = path("hurt_indexless.cdcc");
  write_file(indexless_path, indexless);

  // Replay cannot reach past a stream's first bad frame, so every time the
  // repack drops it and the rest of its stream: {2,1} loses both frames.
  // Without an index a CRC-bad frame whose header parsed is still listed,
  // and a scan that stopped short of the trailing sections reports what it
  // left unscanned.
  const struct {
    std::string path;
    bool scan_stops;
  } inputs[] = {{hurt_path, false}, {torn_path, false}, {indexless_path, true}};
  for (const auto& input : inputs) {
    SCOPED_TRACE(input.path);
    const std::string repacked_path = path("repacked.cdcc");
    const RepackResult result = repack_container(input.path, repacked_path);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.frames_kept, 3u);
    EXPECT_EQ(result.frames_dropped, 2u);
    EXPECT_EQ(!result.scan_stop.empty(), input.scan_stops) << result.scan_stop;

    const auto repacked = ContainerReader::open(repacked_path);
    ASSERT_NE(repacked, nullptr);
    EXPECT_TRUE(repacked->verify().ok);
    // Undamaged streams survive byte-for-byte.
    EXPECT_EQ(repacked->read_stream({0, 1}), reader->read_stream({0, 1}));
    EXPECT_EQ(repacked->read_stream({-1, 3}), reader->read_stream({-1, 3}));
    EXPECT_EQ(repacked->find({2, 1}), nullptr);
  }
}

TEST_F(CorruptionTest, ReadStreamAbortsOnCorruptFrame) {
  const std::string clean_path = path("clean.cdcc");
  build_sample(clean_path);
  std::vector<std::uint8_t> bytes = read_file(clean_path);
  bytes[kContainerHeaderSize + 3] ^= 0x01;  // inside the first frame
  const std::string hurt_path = path("hurt.cdcc");
  write_file(hurt_path, bytes);

  const auto damaged = ContainerReader::open(hurt_path);
  ASSERT_NE(damaged, nullptr);
  // Replay must never consume silently corrupt data.
  EXPECT_DEATH((void)damaged->read_stream({0, 1}), "");
}

TEST_F(CorruptionTest, EmptyContainerSalvagesToAnEmptyRecord) {
  // Regression: a recorder killed before its very first write leaves a
  // zero-byte container. Salvage must yield an empty record with a
  // diagnostic, not a failure (and certainly not an abort).
  const std::string empty_path = path("empty.cdcc");
  write_file(empty_path, {});

  std::string error;
  const auto reader = ContainerReader::open(empty_path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_FALSE(reader->header_ok());
  EXPECT_FALSE(reader->header_error().empty());
  EXPECT_TRUE(reader->scan_good_frames().empty());
  EXPECT_TRUE(reader->keys().empty());

  const RepackResult repack =
      repack_container(empty_path, path("empty_repacked.cdcc"));
  EXPECT_EQ(repack.frames_kept, 0u);
  EXPECT_EQ(repack.frames_dropped, 0u);
}

TEST_F(CorruptionTest, TruncatedIndexFooterStillSalvagesEveryFrame) {
  // Regression: a crash while the seal's index footer was being written
  // loses the index but not one byte of frame data — the sequential scan
  // must recover all five frames and repack them into a sealed container.
  // The scan stops at the trailing sections (the stream index, or the
  // epoch section in front of it), which is where the data ends, not
  // damage: no scan stop is reported.
  const struct {
    const char* name;
    void (*build)(const std::string&);
  } inputs[] = {{"plain", build_sample}, {"epochs", build_epoch_sample}};
  for (const auto& input : inputs) {
    SCOPED_TRACE(input.name);
    const std::string clean_path = path("clean.cdcc");
    input.build(clean_path);
    std::vector<std::uint8_t> bytes = read_file(clean_path);
    ASSERT_GT(bytes.size(), 6u);
    bytes.resize(bytes.size() - 6);  // rip through the fixed-size footer
    const std::string torn_path = path("torn.cdcc");
    write_file(torn_path, bytes);

    const auto reader = ContainerReader::open(torn_path);
    ASSERT_NE(reader, nullptr);
    EXPECT_TRUE(reader->header_ok());
    EXPECT_FALSE(reader->index_ok());
    EXPECT_FALSE(reader->index_error().empty());
    EXPECT_EQ(reader->scan_good_frames().size(), 5u);

    const std::string repacked_path = path("torn_repacked.cdcc");
    const RepackResult repack = repack_container(torn_path, repacked_path);
    EXPECT_TRUE(repack.ok) << repack.error;
    EXPECT_EQ(repack.frames_kept, 5u);
    EXPECT_EQ(repack.frames_dropped, 0u);
    EXPECT_EQ(repack.scan_stop, "");
    const auto repacked = ContainerReader::open(repacked_path);
    ASSERT_NE(repacked, nullptr);
    EXPECT_TRUE(repacked->header_ok());
    EXPECT_TRUE(repacked->index_ok());
    EXPECT_TRUE(repacked->verify().ok);
    // The epoch section in front of the torn footer is intact, so every
    // frame keeps its epoch record and the repack is the uncut file.
    if (input.build == build_epoch_sample) {
      EXPECT_EQ(read_file(repacked_path), read_file(clean_path));
    }
  }
}

// Re-encodes the sealed index with the first entry's payload size set to
// `payload_bytes` and a recomputed CRC, so only the size is forged.
std::vector<std::uint8_t> forge_payload_size(
    const std::vector<std::uint8_t>& clean, std::uint64_t payload_bytes) {
  const std::span<const std::uint8_t> all(clean);
  support::ByteReader footer(
      all.subspan(clean.size() - kContainerFooterSize));
  (void)footer.u32();
  const std::uint64_t index_len = footer.u64();
  const std::size_t index_at =
      clean.size() - kContainerFooterSize - index_len;
  support::ByteReader in(all.subspan(index_at, index_len));
  support::ByteWriter index;
  const std::uint64_t streams = in.varint();
  index.varint(streams);
  for (std::uint64_t s = 0; s < streams; ++s) {
    index.svarint(in.svarint());
    index.varint(in.varint());
    const std::uint64_t frames = in.varint();
    index.varint(frames);
    const std::uint64_t indexed = in.varint();
    index.varint(s == 0 ? payload_bytes : indexed);
    for (std::uint64_t f = 0; f < frames; ++f) index.varint(in.varint());
  }
  support::ByteWriter out;
  out.bytes(all.subspan(0, index_at));
  out.bytes(index.view());
  out.u32(compress::crc32(index.view()));
  out.u64(index.size());
  for (const std::uint8_t byte : kFooterMagic) out.u8(byte);
  return std::move(out).take();
}

TEST_F(CorruptionTest, ForgedIndexPayloadSizeIsRefused) {
  const std::string clean_path = path("clean.cdcc");
  build_sample(clean_path);
  const std::vector<std::uint8_t> clean = read_file(clean_path);
  const auto reader = ContainerReader::open(clean_path);
  ASSERT_NE(reader, nullptr);
  const std::uint64_t indexed =
      reader->find(reader->keys().front())->payload_bytes;

  // A size past the data region: the index is refused instead of trusted
  // (read_stream would reserve 2^62 bytes), and salvage keeps every frame.
  const std::string huge_path = path("huge.cdcc");
  write_file(huge_path, forge_payload_size(clean, 1ull << 62));
  const auto huge = ContainerReader::open(huge_path);
  ASSERT_NE(huge, nullptr);
  EXPECT_FALSE(huge->index_ok());
  EXPECT_FALSE(huge->verify().ok);
  EXPECT_DEATH((void)ContainerStore::open(huge_path),
               "container index corrupt");
  const RepackResult repack =
      repack_container(huge_path, path("huge_repacked.cdcc"));
  ASSERT_TRUE(repack.ok) << repack.error;
  EXPECT_EQ(repack.frames_kept, 5u);
  EXPECT_EQ(repack.frames_dropped, 0u);

  // A size in range but one byte off: the index opens, verify() objects.
  const std::string off_path = path("off_by_one.cdcc");
  write_file(off_path, forge_payload_size(clean, indexed + 1));
  const auto off = ContainerReader::open(off_path);
  ASSERT_NE(off, nullptr);
  EXPECT_TRUE(off->index_ok());
  EXPECT_FALSE(off->verify().ok);
}

TEST_F(CorruptionTest, RepackKeepsTheEpochIndex) {
  const std::string clean_path = path("clean.cdcc");
  build_epoch_sample(clean_path);
  const std::vector<std::uint8_t> clean = read_file(clean_path);

  // Nothing to salvage: the repack is the source, byte for byte.
  const std::string same_path = path("same.cdcc");
  const RepackResult same = repack_container(clean_path, same_path);
  ASSERT_TRUE(same.ok) << same.error;
  EXPECT_EQ(read_file(same_path), clean);

  // One payload byte of stream (2,1)'s first frame: that stream loses
  // both its frames, the others keep their epoch indexes.
  const auto reader = ContainerReader::open(clean_path);
  ASSERT_NE(reader, nullptr);
  const auto frames = reader->scan_good_frames();
  ASSERT_EQ(frames.size(), 5u);
  ASSERT_EQ(frames[1].key, (runtime::StreamKey{2, 1}));
  std::vector<std::uint8_t> bytes = clean;
  bytes[static_cast<std::size_t>(frames[2].offset) - 4 - 1] ^= 0xFF;
  const std::string hurt_path = path("hurt.cdcc");
  write_file(hurt_path, bytes);

  const std::string repacked_path = path("repacked.cdcc");
  const RepackResult result = repack_container(hurt_path, repacked_path);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.frames_dropped, 2u);
  const auto repacked = ContainerReader::open(repacked_path);
  ASSERT_NE(repacked, nullptr);
  EXPECT_TRUE(repacked->verify().ok);
  ASSERT_TRUE(repacked->epoch_index_ok()) << repacked->epoch_index_error();
  EXPECT_NE(repacked->find_epochs({0, 1}), nullptr);
  EXPECT_NE(repacked->find_epochs({-1, 3}), nullptr);
  EXPECT_EQ(repacked->find_epochs({2, 1}), nullptr);
  const ContainerReader::WindowRead window =
      repacked->read_stream_window({0, 1}, 1, 2);
  EXPECT_TRUE(window.seeked);
  EXPECT_EQ(window.bytes, (std::vector<std::uint8_t>{9, 9, 9, 9}));

  // Stream (2,1)'s last frame instead: the stream keeps its first frame,
  // and that frame keeps its epoch record.
  bytes = clean;
  bytes[static_cast<std::size_t>(frames[4].offset + frames[4].frame_size) -
        4 - 1] ^= 0xFF;
  write_file(hurt_path, bytes);
  ASSERT_TRUE(repack_container(hurt_path, repacked_path).ok);
  const auto cut = ContainerReader::open(repacked_path);
  ASSERT_NE(cut, nullptr);
  ASSERT_TRUE(cut->epoch_index_ok()) << cut->epoch_index_error();
  const StreamEpochIndex* kept = cut->find_epochs({2, 1});
  ASSERT_NE(kept, nullptr);
  ASSERT_EQ(kept->epochs.size(), 1u);
  EXPECT_EQ(kept->epochs[0].matched, 5u);
  EXPECT_EQ(kept->epochs[0].unmatched, 0u);
}

TEST_F(CorruptionTest, RefusedIndexReportsOneError) {
  const std::string clean_path = path("clean.cdcc");
  build_epoch_sample(clean_path);
  std::vector<std::uint8_t> bytes = read_file(clean_path);

  // One bit of the stream index's first byte: the index CRC refuses it.
  std::uint64_t index_len = 0;
  for (int b = 7; b >= 0; --b)
    index_len = (index_len << 8) | bytes[bytes.size() - 16 + b];
  bytes[bytes.size() - kContainerFooterSize - index_len] ^= 0x01;
  const std::string hurt_path = path("hurt.cdcc");
  write_file(hurt_path, bytes);

  const auto damaged = ContainerReader::open(hurt_path);
  ASSERT_NE(damaged, nullptr);
  EXPECT_FALSE(damaged->index_ok());
  // The sequential fallback stops before the intact epoch section, so the
  // refused index is the only error and every frame is checked.
  const VerifyReport report = damaged->verify();
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.container_errors,
            std::vector<std::string>{damaged->index_error()});
  EXPECT_TRUE(report.bad_frames.empty());
  EXPECT_EQ(report.frames_checked, 5u);
}

}  // namespace
}  // namespace cdc::store
