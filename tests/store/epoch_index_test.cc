// The epoch index's safety contract: it is an accelerator, never a trust
// anchor. A sealed epoch-indexed container round-trips seeked windowed
// reads; ANY damage to the epoch section — truncated/oversized length
// field, CRC flip, frame-offset mismatch, torn magic — degrades windowed
// reads to a loud sequential fallback (store.container.epoch_fallbacks)
// with byte-identical results, fails verify(), and never produces wrong
// bytes. Containers written without epoch metadata (the pre-epoch format)
// stay fully healthy. The flip-every-byte sweep from corruption_test.cc is
// repeated here over a container WITH the new footer section.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "compress/crc32.h"
#include "obs/metrics.h"
#include "store/container_reader.h"
#include "store/container_writer.h"
#include "support/binary.h"

namespace cdc::store {
namespace {

class EpochIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cdc_epoch_index_test." + std::to_string(::getpid()));
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

/// Two streams, five epoch-carrying frames with distinct event counts.
void build_epoch_sample(const std::string& file) {
  ContainerWriter writer(file);
  writer.append_frame({0, 1}, std::vector<std::uint8_t>{1, 2, 3, 4},
                      runtime::EpochMeta{3, 1});
  writer.append_frame({2, 1}, std::vector<std::uint8_t>{10, 20, 30},
                      runtime::EpochMeta{5, 0});
  writer.append_frame({0, 1}, std::vector<std::uint8_t>{9, 9},
                      runtime::EpochMeta{2, 4});
  writer.append_frame({0, 1}, std::vector<std::uint8_t>{7, 7, 7},
                      runtime::EpochMeta{6, 0});
  writer.append_frame({2, 1}, std::vector<std::uint8_t>{42},
                      runtime::EpochMeta{1, 1});
  writer.seal();
}

/// File offsets of the epoch section, recovered from the two footers the
/// way the reader does it (both footers are `crc u32 | len u64 | magic`).
struct EpochRegion {
  std::size_t payload_at = 0;
  std::size_t payload_len = 0;
  std::size_t footer_at = 0;  ///< the 20-byte epoch footer
};

EpochRegion locate_epoch_section(const std::vector<std::uint8_t>& bytes) {
  EpochRegion region;
  std::uint64_t index_len = 0;
  for (int b = 7; b >= 0; --b)
    index_len = (index_len << 8) | bytes[bytes.size() - 16 + b];
  const std::size_t index_at =
      bytes.size() - kContainerFooterSize - index_len;
  region.footer_at = index_at - kEpochFooterSize;
  EXPECT_EQ(std::memcmp(bytes.data() + region.footer_at + 12,
                        kEpochFooterMagic, 8),
            0);
  std::uint64_t epoch_len = 0;
  for (int b = 7; b >= 0; --b)
    epoch_len = (epoch_len << 8) | bytes[region.footer_at + 4 + b];
  region.payload_len = static_cast<std::size_t>(epoch_len);
  region.payload_at = region.footer_at - region.payload_len;
  return region;
}

/// Restamps the epoch CRC after a surgical payload edit, so the edit is
/// caught by the cross-checks rather than the CRC.
void restamp_epoch_crc(std::vector<std::uint8_t>& bytes) {
  const EpochRegion region = locate_epoch_section(bytes);
  const std::uint32_t crc = compress::crc32(
      std::span<const std::uint8_t>(bytes).subspan(region.payload_at,
                                                   region.payload_len));
  for (int b = 0; b < 4; ++b)
    bytes[region.footer_at + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(crc >> (8 * b));
}

std::uint64_t fallbacks() {
  return obs::counter("store.container.epoch_fallbacks").value();
}

/// Expected counter increment per loud fallback. With the obs layer
/// compiled out (-DCDC_OBS=OFF) recording is a deliberate no-op, so the
/// counter stays flat there while the fallback *behavior* (sequential
/// read, byte-identical bytes, failed verify) is still asserted.
std::uint64_t fallback_delta() { return obs::compiled_in() ? 1 : 0; }

/// The fallback contract every damage case must satisfy: container opens,
/// stream index is healthy, the epoch index is flagged, windowed reads
/// fall back loudly to the full (byte-identical) stream, verify() fails.
void expect_loud_fallback(const std::string& damaged_path,
                          const std::string& clean_path) {
  std::string error;
  const auto damaged = ContainerReader::open(damaged_path, &error);
  ASSERT_NE(damaged, nullptr) << error;
  EXPECT_TRUE(damaged->index_ok()) << damaged->index_error();
  EXPECT_FALSE(damaged->epoch_index_ok());
  EXPECT_FALSE(damaged->epoch_index_error().empty());
  EXPECT_EQ(damaged->find_epochs({0, 1}), nullptr);

  const auto clean = ContainerReader::open(clean_path);
  ASSERT_NE(clean, nullptr);
  for (const runtime::StreamKey key :
       {runtime::StreamKey{0, 1}, runtime::StreamKey{2, 1}}) {
    const std::uint64_t before = fallbacks();
    const ContainerReader::WindowRead window =
        damaged->read_stream_window(key, 1, 2);
    EXPECT_FALSE(window.seeked);
    EXPECT_EQ(window.first_epoch, 0u);
    EXPECT_EQ(fallbacks(), before + fallback_delta()) << "fallback must be loud";
    // Never wrong bytes: the fallback serves the whole healthy stream.
    EXPECT_EQ(window.bytes, clean->read_stream(key));
    EXPECT_EQ(damaged->read_stream(key), clean->read_stream(key));
  }

  const VerifyReport report = damaged->verify();
  EXPECT_FALSE(report.ok);
  bool flagged = false;
  for (const std::string& problem : report.container_errors)
    flagged |= problem.find("epoch index") != std::string::npos ||
               problem.find("does not end where the index begins") !=
                   std::string::npos;
  EXPECT_TRUE(flagged) << report.summary();
  EXPECT_TRUE(report.bad_frames.empty()) << "frames themselves are intact";
}

TEST_F(EpochIndexTest, RoundTripServesSeekedWindows) {
  const std::string file = path("clean.cdcc");
  build_epoch_sample(file);
  const auto reader = ContainerReader::open(file);
  ASSERT_NE(reader, nullptr);
  EXPECT_TRUE(reader->index_ok());
  EXPECT_TRUE(reader->epoch_index_present());
  EXPECT_TRUE(reader->epoch_index_ok()) << reader->epoch_index_error();
  EXPECT_TRUE(reader->verify().ok);

  const StreamEpochIndex* epochs = reader->find_epochs({0, 1});
  ASSERT_NE(epochs, nullptr);
  ASSERT_EQ(epochs->epochs.size(), 3u);
  EXPECT_EQ(epochs->epochs[0].matched, 3u);
  EXPECT_EQ(epochs->epochs[0].unmatched, 1u);
  EXPECT_EQ(epochs->epochs[2].matched, 6u);
  EXPECT_EQ(epochs->matched_before(0), 0u);
  EXPECT_EQ(epochs->matched_before(2), 5u);
  EXPECT_EQ(epochs->matched_before(99), 11u);  // clamped to the stream end
  // The epoch offsets mirror the stream index (the redundancy the reader
  // cross-validates).
  const StreamIndexEntry* entry = reader->find({0, 1});
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->frame_offsets.size(), 3u);
  for (std::size_t e = 0; e < 3; ++e)
    EXPECT_EQ(epochs->epochs[e].frame_offset, entry->frame_offsets[e]);

  // Seeked window read: exactly the middle frame, no fallback.
  const std::uint64_t before = fallbacks();
  const ContainerReader::WindowRead window =
      reader->read_stream_window({0, 1}, 1, 2);
  EXPECT_TRUE(window.seeked);
  EXPECT_EQ(window.first_epoch, 1u);
  EXPECT_EQ(window.bytes, (std::vector<std::uint8_t>{9, 9}));
  EXPECT_EQ(fallbacks(), before);
  // Out-of-range bounds clamp instead of aborting.
  EXPECT_TRUE(reader->read_stream_window({0, 1}, 2, 99).bytes ==
              (std::vector<std::uint8_t>{7, 7, 7}));
  EXPECT_TRUE(reader->read_stream_window({0, 1}, 7, 9).bytes.empty());
}

TEST_F(EpochIndexTest, ContainersWithoutEpochMetadataStayHealthy) {
  // The pre-epoch format: no metadata, no section — and no damage report.
  const std::string file = path("old.cdcc");
  {
    ContainerWriter writer(file);
    writer.append_frame({0, 1}, std::vector<std::uint8_t>{1, 2, 3});
    writer.append_frame({0, 1}, std::vector<std::uint8_t>{4, 5});
    writer.seal();
  }
  const auto reader = ContainerReader::open(file);
  ASSERT_NE(reader, nullptr);
  EXPECT_FALSE(reader->epoch_index_present());
  EXPECT_FALSE(reader->epoch_index_ok());
  EXPECT_TRUE(reader->verify().ok) << "absence is not damage";
  const std::uint64_t before = fallbacks();
  const ContainerReader::WindowRead window =
      reader->read_stream_window({0, 1}, 0, 1);
  EXPECT_FALSE(window.seeked);
  EXPECT_EQ(window.bytes, reader->read_stream({0, 1}));
  EXPECT_EQ(fallbacks(), before + fallback_delta());
}

TEST_F(EpochIndexTest, MixedMetadataOmitsTheIndexForThatStream) {
  // One frame without metadata poisons only its own stream's epochs; the
  // writer drops that stream from the section rather than lying.
  const std::string file = path("mixed.cdcc");
  {
    ContainerWriter writer(file);
    writer.append_frame({0, 1}, std::vector<std::uint8_t>{1},
                        runtime::EpochMeta{1, 0});
    writer.append_frame({5, 2}, std::vector<std::uint8_t>{2});  // no meta
    writer.append_frame({0, 1}, std::vector<std::uint8_t>{3},
                        runtime::EpochMeta{2, 0});
    writer.seal();
  }
  const auto reader = ContainerReader::open(file);
  ASSERT_NE(reader, nullptr);
  EXPECT_TRUE(reader->epoch_index_ok()) << reader->epoch_index_error();
  EXPECT_TRUE(reader->verify().ok);
  EXPECT_NE(reader->find_epochs({0, 1}), nullptr);
  EXPECT_EQ(reader->find_epochs({5, 2}), nullptr);
  EXPECT_TRUE(reader->read_stream_window({0, 1}, 0, 1).seeked);
  EXPECT_FALSE(reader->read_stream_window({5, 2}, 0, 1).seeked);
}

TEST_F(EpochIndexTest, EpochCrcFlipFallsBackLoudly) {
  const std::string clean_path = path("clean.cdcc");
  build_epoch_sample(clean_path);
  std::vector<std::uint8_t> bytes = read_file(clean_path);
  bytes[locate_epoch_section(bytes).footer_at + 1] ^= 0xA5;  // crc field
  const std::string hurt_path = path("crc_flip.cdcc");
  write_file(hurt_path, bytes);
  expect_loud_fallback(hurt_path, clean_path);
}

TEST_F(EpochIndexTest, EpochPayloadDamageFallsBackLoudly) {
  const std::string clean_path = path("clean.cdcc");
  build_epoch_sample(clean_path);
  std::vector<std::uint8_t> bytes = read_file(clean_path);
  const EpochRegion region = locate_epoch_section(bytes);
  bytes[region.payload_at + region.payload_len / 2] ^= 0xFF;
  const std::string hurt_path = path("payload_flip.cdcc");
  write_file(hurt_path, bytes);
  expect_loud_fallback(hurt_path, clean_path);
}

TEST_F(EpochIndexTest, LengthFieldDamageFallsBackLoudly) {
  // A torn length field either points the payload at garbage (CRC catches
  // it) or claims more bytes than the file holds (the bound check does).
  const std::string clean_path = path("clean.cdcc");
  build_epoch_sample(clean_path);
  for (const std::size_t victim : {std::size_t{4}, std::size_t{10}}) {
    std::vector<std::uint8_t> bytes = read_file(clean_path);
    bytes[locate_epoch_section(bytes).footer_at + victim] ^= 0xFF;
    const std::string hurt_path = path("len_flip.cdcc");
    write_file(hurt_path, bytes);
    expect_loud_fallback(hurt_path, clean_path);
  }
}

TEST_F(EpochIndexTest, FrameOffsetMismatchIsRejected) {
  // A syntactically valid epoch section whose offsets disagree with the
  // stream index — the CRC is deliberately restamped so only the
  // cross-validation stands between the seek and wrong frames.
  const std::string clean_path = path("clean.cdcc");
  build_epoch_sample(clean_path);
  std::vector<std::uint8_t> bytes = read_file(clean_path);
  const EpochRegion region = locate_epoch_section(bytes);
  // Payload (all single-byte varints at this size): stream_count, then per
  // stream rank/callsite/epoch_count followed by 3 varints per epoch. The
  // first stream's first offset delta is the 5th payload byte.
  const std::size_t first_delta = region.payload_at + 4;
  ASSERT_LT(bytes[first_delta], 0x40u) << "expected a single-byte varint";
  bytes[first_delta] ^= 0x01;
  restamp_epoch_crc(bytes);
  const std::string hurt_path = path("offset_skew.cdcc");
  write_file(hurt_path, bytes);

  const auto damaged = ContainerReader::open(hurt_path);
  ASSERT_NE(damaged, nullptr);
  EXPECT_EQ(damaged->epoch_index_error(),
            "epoch index frame offset mismatch");
  expect_loud_fallback(hurt_path, clean_path);
}

TEST_F(EpochIndexTest, ForgedEpochCountDegradesToSequentialRead) {
  // A CRC-valid epoch section whose first stream claims 2^62 epochs: the
  // reader must not size anything by that claim, only find the section
  // truncated.
  const std::string clean_path = path("clean.cdcc");
  build_epoch_sample(clean_path);
  const std::vector<std::uint8_t> clean = read_file(clean_path);
  const EpochRegion region = locate_epoch_section(clean);
  const auto section = std::span<const std::uint8_t>(clean).subspan(
      region.payload_at, region.payload_len);
  // stream_count, rank, callsite, then the first stream's epoch count.
  ASSERT_LT(section[3], 0x80u) << "expected a single-byte varint";
  support::ByteWriter forged;
  forged.bytes(section.subspan(0, 3));
  forged.varint(std::uint64_t{1} << 62);
  forged.bytes(section.subspan(4));
  support::ByteWriter out;
  out.bytes(std::span<const std::uint8_t>(clean).subspan(0, region.payload_at));
  out.bytes(forged.view());
  out.u32(compress::crc32(forged.view()));
  out.u64(forged.size());
  for (const std::uint8_t byte : kEpochFooterMagic) out.u8(byte);
  out.bytes(std::span<const std::uint8_t>(clean).subspan(
      region.footer_at + kEpochFooterSize));
  const std::string hurt_path = path("forged_count.cdcc");
  write_file(hurt_path, std::move(out).take());

  const auto damaged = ContainerReader::open(hurt_path);
  ASSERT_NE(damaged, nullptr);
  EXPECT_EQ(damaged->epoch_index_error(), "truncated epoch index");
  expect_loud_fallback(hurt_path, clean_path);
}

TEST_F(EpochIndexTest, TornEpochMagicDegradesToSequentialRead) {
  // With the magic gone the section is unrecognizable — the reader treats
  // the container as pre-epoch (present=false), windowed reads fall back,
  // and verify() still flags the orphaned bytes via the tiling check.
  const std::string clean_path = path("clean.cdcc");
  build_epoch_sample(clean_path);
  std::vector<std::uint8_t> bytes = read_file(clean_path);
  bytes[locate_epoch_section(bytes).footer_at + 12] ^= 0xA5;
  const std::string hurt_path = path("magic_flip.cdcc");
  write_file(hurt_path, bytes);

  const auto damaged = ContainerReader::open(hurt_path);
  ASSERT_NE(damaged, nullptr);
  EXPECT_TRUE(damaged->index_ok());
  EXPECT_FALSE(damaged->epoch_index_present());
  EXPECT_FALSE(damaged->epoch_index_ok());
  const std::uint64_t before = fallbacks();
  const auto window = damaged->read_stream_window({0, 1}, 1, 2);
  EXPECT_FALSE(window.seeked);
  EXPECT_EQ(fallbacks(), before + fallback_delta());
  const auto clean = ContainerReader::open(clean_path);
  ASSERT_NE(clean, nullptr);
  EXPECT_EQ(window.bytes, clean->read_stream({0, 1}));
  EXPECT_FALSE(damaged->verify().ok);
}

TEST_F(EpochIndexTest, EverySingleByteFlipIsDetected) {
  // The corruption_test.cc sweep over the NEW layout: with the epoch
  // section between frames and index, flipping any byte of the file —
  // including every byte of the epoch payload and its footer — must fail
  // verification.
  const std::string clean_path = path("clean.cdcc");
  build_epoch_sample(clean_path);
  const std::vector<std::uint8_t> clean = read_file(clean_path);
  ASSERT_GT(clean.size(),
            kContainerHeaderSize + kEpochFooterSize + kContainerFooterSize);

  const std::string mutated_path = path("mutated.cdcc");
  for (std::size_t flip = 0; flip < clean.size(); ++flip) {
    std::vector<std::uint8_t> mutated = clean;
    mutated[flip] ^= 0xA5;
    write_file(mutated_path, mutated);
    const auto damaged = ContainerReader::open(mutated_path);
    ASSERT_NE(damaged, nullptr) << "open must tolerate damage, byte " << flip;
    EXPECT_FALSE(damaged->verify().ok)
        << "flip of byte " << flip << " went undetected";
  }
}

}  // namespace
}  // namespace cdc::store
