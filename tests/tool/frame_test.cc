#include "tool/frame.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "support/rng.h"

namespace cdc::tool {
namespace {

std::vector<std::uint8_t> make_payload(std::size_t n, bool compressible) {
  support::Xoshiro256 rng(5);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out)
    b = compressible ? 0 : static_cast<std::uint8_t>(rng.bounded(256));
  return out;
}

TEST(Frame, RoundTripCompressible) {
  const auto payload = make_payload(10000, true);
  support::ByteWriter w;
  write_frame(w, 3, 42, payload, compress::DeflateLevel::kDefault);
  EXPECT_LT(w.size(), payload.size() / 10);

  support::ByteReader r(w.view());
  const auto frame = read_frame(r);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->codec, 3);
  EXPECT_EQ(frame->meta, 42u);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_TRUE(r.exhausted());
}

TEST(Frame, IncompressiblePayloadStoredRaw) {
  const auto payload = make_payload(1000, false);
  support::ByteWriter w;
  write_frame(w, 1, 0, payload, compress::DeflateLevel::kDefault);
  // Raw storage bounds the expansion to the small frame header.
  EXPECT_LE(w.size(), payload.size() + 16);
  support::ByteReader r(w.view());
  const auto frame = read_frame(r);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, payload);
}

TEST(Frame, DeflateAndInflateCountTheSameFrames) {
  // A record with both kinds of stored-raw frame (incompressible, and
  // compress == false) beside a deflated one: reading it back counts every
  // frame on the inflate side, as encoding did on the deflate side.
  if (!obs::compiled_in()) GTEST_SKIP() << "obs compiled out";
  obs::set_enabled(true);
  obs::Counter& deflate_calls = obs::counter("record.stage.deflate.calls");
  obs::Counter& deflate_in = obs::counter("record.stage.deflate.bytes_in");
  obs::Counter& inflate_calls = obs::counter("record.stage.inflate.calls");
  obs::Counter& inflate_out = obs::counter("record.stage.inflate.bytes_out");
  const std::uint64_t deflate_calls_before = deflate_calls.value();
  const std::uint64_t deflate_in_before = deflate_in.value();
  const std::uint64_t inflate_calls_before = inflate_calls.value();
  const std::uint64_t inflate_out_before = inflate_out.value();

  const std::vector<std::vector<std::uint8_t>> payloads = {
      make_payload(4000, true), make_payload(1000, false),
      make_payload(300, true)};
  support::ByteWriter record;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    FrameJob job;
    job.compress = i != 2;
    job.payload = payloads[i];
    record.bytes(encode_frame(job));
  }
  support::ByteReader in(record.view());
  for (const auto& payload : payloads) {
    const auto frame = read_frame(in);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->payload, payload);
  }

  EXPECT_EQ(deflate_calls.value() - deflate_calls_before, payloads.size());
  EXPECT_EQ(inflate_calls.value() - inflate_calls_before, payloads.size());
  EXPECT_EQ(deflate_in.value() - deflate_in_before, 4000u + 1000u + 300u);
  EXPECT_EQ(inflate_out.value() - inflate_out_before,
            deflate_in.value() - deflate_in_before);
}

TEST(Frame, SequenceOfFrames) {
  support::ByteWriter w;
  for (std::uint8_t i = 0; i < 5; ++i) {
    const std::vector<std::uint8_t> payload(100 + i, i);
    write_frame(w, i, i * 10, payload, compress::DeflateLevel::kFast);
  }
  support::ByteReader r(w.view());
  for (std::uint8_t i = 0; i < 5; ++i) {
    const auto frame = read_frame(r);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->codec, i);
    EXPECT_EQ(frame->meta, i * 10u);
    EXPECT_EQ(frame->payload.size(), 100u + i);
  }
  EXPECT_FALSE(read_frame(r).has_value());  // clean end of stream
}

TEST(Frame, EmptyStreamYieldsNothing) {
  support::ByteReader r({});
  EXPECT_FALSE(read_frame(r).has_value());
}

TEST(Frame, RejectsBadMagic) {
  support::ByteWriter w;
  write_frame(w, 0, 0, make_payload(50, true),
              compress::DeflateLevel::kDefault);
  auto data = std::move(w).take();
  data[0] = 0x00;
  support::ByteReader r(data);
  EXPECT_FALSE(read_frame(r).has_value());
}

TEST(Frame, RejectsTruncatedBody) {
  support::ByteWriter w;
  write_frame(w, 0, 0, make_payload(5000, true),
              compress::DeflateLevel::kDefault);
  auto data = std::move(w).take();
  data.resize(data.size() - 3);
  support::ByteReader r(data);
  EXPECT_FALSE(read_frame(r).has_value());
}

TEST(Frame, RejectsCorruptCompressedBody) {
  support::ByteWriter w;
  write_frame(w, 0, 0, make_payload(5000, true),
              compress::DeflateLevel::kDefault);
  auto data = std::move(w).take();
  data[data.size() / 2] ^= 0x55;
  support::ByteReader r(data);
  const auto frame = read_frame(r);
  // Either the DEFLATE stream fails to parse or the length check fires;
  // silent wrong payloads are not acceptable. (A flipped bit could decode
  // to the right length only with different content — guarded upstream by
  // chunk-level validation.)
  if (frame.has_value()) {
    EXPECT_NE(frame->payload, make_payload(5000, true));
  }
}

}  // namespace
}  // namespace cdc::tool
