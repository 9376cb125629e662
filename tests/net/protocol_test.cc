// Wire-protocol robustness battery (DESIGN.md §13): round-trips for every
// message type, then hostile input — truncation at every byte boundary,
// a bit flip at every byte, oversized length announcements, garbage magic.
// The parser must yield clean kNeedMore/kMalformed verdicts and never a
// wrong message; under ASan this suite is also the memory-safety proof.
#include "net/protocol.h"

#include <gtest/gtest.h>

#include "support/binary.h"

namespace cdc::net {
namespace {

Hello sample_hello() {
  Hello hello;
  hello.token = "sekret-token";
  hello.record = "run-42";
  hello.intent = Intent::kIngest;
  hello.level = compress::DeflateLevel::kBest;
  return hello;
}

FrameBatch sample_batch() {
  FrameBatch batch;
  batch.seq = 7;
  for (int i = 0; i < 3; ++i) {
    WireFrame frame;
    frame.key.rank = i;
    frame.key.callsite = 11;
    frame.job.codec = 0x01;
    frame.job.meta = static_cast<std::uint64_t>(i);
    frame.job.compress = (i % 2) == 0;
    frame.job.payload.assign(64 + 32 * static_cast<std::size_t>(i),
                             static_cast<std::uint8_t>(0x40 + i));
    if (i == 1) {
      runtime::EpochMeta meta;
      meta.matched = 5;
      meta.unmatched = 2;
      frame.job.epoch = meta;
    }
    batch.frames.push_back(std::move(frame));
  }
  return batch;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Feeds `bytes` whole and expects exactly one clean message.
Message parse_one(const std::vector<std::uint8_t>& bytes) {
  WireParser parser;
  parser.feed(bytes);
  Message msg;
  EXPECT_EQ(parser.next(&msg), WireParser::Status::kMessage);
  EXPECT_EQ(parser.buffered(), 0u);
  return msg;
}

TEST(Protocol, HelloRoundTrip) {
  const Message msg = parse_one(encode_hello(sample_hello()));
  EXPECT_EQ(msg.type, MsgType::kHello);
  Hello out;
  ASSERT_TRUE(decode_hello(msg, out));
  EXPECT_EQ(out.version, kProtocolVersion);
  EXPECT_EQ(out.token, "sekret-token");
  EXPECT_EQ(out.record, "run-42");
  EXPECT_EQ(out.intent, Intent::kIngest);
  EXPECT_EQ(out.level, compress::DeflateLevel::kBest);
}

TEST(Protocol, WelcomeRoundTrip) {
  Welcome welcome;
  welcome.level = compress::DeflateLevel::kFast;
  welcome.session_id = 99;
  welcome.limits.max_message_body = 1 << 20;
  welcome.limits.max_frame_bytes = 1 << 16;
  welcome.limits.max_batch_frames = 32;
  Welcome out;
  ASSERT_TRUE(decode_welcome(parse_one(encode_welcome(welcome)), out));
  EXPECT_EQ(out.level, compress::DeflateLevel::kFast);
  EXPECT_EQ(out.session_id, 99u);
  EXPECT_EQ(out.limits.max_message_body, 1u << 20);
  EXPECT_EQ(out.limits.max_frame_bytes, 1u << 16);
  EXPECT_EQ(out.limits.max_batch_frames, 32u);
}

TEST(Protocol, PutFramesRoundTripAllLevels) {
  const FrameBatch batch = sample_batch();
  for (const auto level :
       {compress::DeflateLevel::kStored, compress::DeflateLevel::kFast,
        compress::DeflateLevel::kDefault, compress::DeflateLevel::kBest}) {
    FrameBatch out;
    ASSERT_TRUE(decode_put_frames(parse_one(encode_put_frames(batch, level)),
                                  Limits{}, out));
    ASSERT_EQ(out.seq, batch.seq);
    ASSERT_EQ(out.frames.size(), batch.frames.size());
    for (std::size_t i = 0; i < out.frames.size(); ++i) {
      EXPECT_EQ(out.frames[i].key, batch.frames[i].key);
      EXPECT_EQ(out.frames[i].job.codec, batch.frames[i].job.codec);
      EXPECT_EQ(out.frames[i].job.meta, batch.frames[i].job.meta);
      EXPECT_EQ(out.frames[i].job.compress, batch.frames[i].job.compress);
      EXPECT_EQ(out.frames[i].job.payload, batch.frames[i].job.payload);
      EXPECT_EQ(out.frames[i].job.epoch.has_value(),
                batch.frames[i].job.epoch.has_value());
      if (out.frames[i].job.epoch.has_value()) {
        EXPECT_EQ(*out.frames[i].job.epoch, *batch.frames[i].job.epoch);
      }
    }
  }
}

TEST(Protocol, PutFramesGoldenBytes) {
  // The PUT_FRAMES body layout (DESIGN.md §13) is a wire contract: an
  // edit that moves one byte of it breaks every deployed peer.
  EXPECT_EQ(fnv1a(encode_put_frames(sample_batch(),
                                    compress::DeflateLevel::kFast)),
            0xabe22fde5c4ab9a6ull);
}

TEST(Protocol, DecodeRejectsUnknownFrameFlags) {
  // Bit 0 (compress) and bit 1 (epoch counts) are the only frame flags;
  // a batch carrying any other bit is refused, not half-understood.
  const auto body_with_flags = [](std::uint8_t flags) {
    support::ByteWriter body;
    body.varint(1);  // frame count
    body.svarint(0);
    body.varint(11);
    body.u8(0x01);  // codec
    body.varint(0);  // meta
    body.u8(flags);
    const std::uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    body.sized_bytes(payload);
    return parse_one(encode_message(MsgType::kPutFrames, 1, body.view()));
  };
  FrameBatch out;
  EXPECT_TRUE(decode_put_frames(body_with_flags(1), Limits{}, out));
  for (const std::uint8_t flags : {std::uint8_t{4}, std::uint8_t{0x80}}) {
    ErrCode refusal = ErrCode::kInternal;
    EXPECT_FALSE(
        decode_put_frames(body_with_flags(flags), Limits{}, out, &refusal))
        << "flags " << static_cast<int>(flags);
    EXPECT_EQ(refusal, ErrCode::kBadMessage)
        << "flags " << static_cast<int>(flags);
  }
}

TEST(Protocol, SmallMessagesRoundTrip) {
  PutAck ack{42, 1000, 1 << 20};
  PutAck ack_out;
  ASSERT_TRUE(decode_put_ack(parse_one(encode_put_ack(ack)), ack_out));
  EXPECT_EQ(ack_out.seq, 42u);
  EXPECT_EQ(ack_out.frames_ingested, 1000u);
  EXPECT_EQ(ack_out.bytes_ingested, 1u << 20);

  Sealed sealed{123456, 8, 512};
  Sealed sealed_out;
  ASSERT_TRUE(decode_sealed(parse_one(encode_sealed(sealed)), sealed_out));
  EXPECT_EQ(sealed_out.container_bytes, 123456u);
  EXPECT_EQ(sealed_out.streams, 8u);
  EXPECT_EQ(sealed_out.frames, 512u);

  ReplayWindowReq req{3, 9};
  ReplayWindowReq req_out;
  ASSERT_TRUE(
      decode_replay_window(parse_one(encode_replay_window(req)), req_out));
  EXPECT_EQ(req_out.epoch_lo, 3u);
  EXPECT_EQ(req_out.epoch_hi, 9u);

  WindowDone done{4, true};
  WindowDone done_out;
  ASSERT_TRUE(decode_window_done(parse_one(encode_window_done(done)),
                                 done_out));
  EXPECT_EQ(done_out.streams, 4u);
  EXPECT_TRUE(done_out.all_seeked);

  InspectKind kind = InspectKind::kVerify;
  ASSERT_TRUE(decode_inspect(
      parse_one(encode_inspect(InspectKind::kGaps)), kind));
  EXPECT_EQ(kind, InspectKind::kGaps);

  const Message bye = parse_one(encode_simple(MsgType::kBye));
  EXPECT_EQ(bye.type, MsgType::kBye);
}

TEST(Protocol, WindowStreamRoundTrip) {
  WindowStream ws;
  ws.key.rank = 3;
  ws.key.callsite = 17;
  ws.first_epoch = 5;
  ws.seeked = true;
  ws.bytes.assign(1024, 0x5A);
  WindowStream out;
  ASSERT_TRUE(decode_window_stream(
      parse_one(encode_window_stream(ws, compress::DeflateLevel::kDefault)),
      out));
  EXPECT_EQ(out.key, ws.key);
  EXPECT_EQ(out.first_epoch, 5u);
  EXPECT_TRUE(out.seeked);
  EXPECT_EQ(out.bytes, ws.bytes);
}

TEST(Protocol, ErrorRoundTrip) {
  ErrCode code = ErrCode::kInternal;
  std::string text;
  ASSERT_TRUE(decode_error(
      parse_one(encode_error(ErrCode::kQuota, "tenant over budget")), code,
      text));
  EXPECT_EQ(code, ErrCode::kQuota);
  EXPECT_EQ(text, "tenant over budget");
  EXPECT_STREQ(err_code_name(ErrCode::kQuota), "quota");
}

// --- hostile input -------------------------------------------------------

TEST(Protocol, TruncationAtEveryByteBoundaryIsNeedMore) {
  // A mid-message disconnect can cut the stream at any byte. Every proper
  // prefix must parse as "still in flight", never as malformed and never
  // as a (wrong) message.
  const std::vector<std::uint8_t> wire =
      encode_put_frames(sample_batch(), compress::DeflateLevel::kFast);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    WireParser parser;
    parser.feed({wire.data(), cut});
    Message msg;
    ASSERT_EQ(parser.next(&msg), WireParser::Status::kNeedMore)
        << "prefix of " << cut << " bytes";
    // Feeding the remainder completes the message.
    parser.feed({wire.data() + cut, wire.size() - cut});
    ASSERT_EQ(parser.next(&msg), WireParser::Status::kMessage);
    EXPECT_EQ(msg.type, MsgType::kPutFrames);
  }
}

TEST(Protocol, BitFlipAtEveryByteNeverYieldsAMessage) {
  // Every wire byte is covered by the trailing CRC (or breaks the header
  // parse outright), so any single-bit corruption must be refused — the
  // parser may want more bytes (a length field grew) but must never hand
  // back a message.
  const std::vector<std::uint8_t> wire = encode_hello(sample_hello());
  for (std::size_t at = 0; at < wire.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bent = wire;
      bent[at] ^= static_cast<std::uint8_t>(1u << bit);
      WireParser parser;
      parser.feed(bent);
      Message msg;
      ASSERT_NE(parser.next(&msg), WireParser::Status::kMessage)
          << "byte " << at << " bit " << bit;
    }
  }
}

TEST(Protocol, OversizedLengthPrefixRejectedWithoutBuffering) {
  // A hostile header announcing a 2^60-byte body must be refused as soon
  // as the announcement parses — the parser never waits for (or buffers
  // toward) the announced bytes.
  support::ByteWriter header;
  header.u8(0xC4);
  header.u8(static_cast<std::uint8_t>(MsgType::kPutFrames));
  header.u8(1);  // stored_raw
  header.varint(0);
  header.varint(1ull << 60);  // raw_len
  header.varint(1ull << 60);  // body_len
  WireParser parser;
  parser.feed(header.view());
  Message msg;
  EXPECT_EQ(parser.next(&msg), WireParser::Status::kMalformed);
  EXPECT_NE(parser.error().find("length"), std::string::npos);
  EXPECT_EQ(parser.error_code(), ErrCode::kOversized);
  // Terminal: even good bytes afterwards stay rejected.
  parser.feed(encode_simple(MsgType::kBye));
  EXPECT_EQ(parser.next(&msg), WireParser::Status::kMalformed);
}

TEST(Protocol, GarbageMagicIsMalformed) {
  std::vector<std::uint8_t> garbage(64);
  for (std::size_t i = 0; i < garbage.size(); ++i)
    garbage[i] = static_cast<std::uint8_t>(i * 37 + 1);
  ASSERT_NE(garbage[0], 0xC4);
  WireParser parser;
  parser.feed(garbage);
  Message msg;
  EXPECT_EQ(parser.next(&msg), WireParser::Status::kMalformed);
  EXPECT_EQ(parser.error_code(), ErrCode::kBadMessage);
}

TEST(Protocol, ByteAtATimeFeedRecoversMessageSequence) {
  std::vector<std::uint8_t> wire;
  const auto append = [&wire](const std::vector<std::uint8_t>& msg) {
    wire.insert(wire.end(), msg.begin(), msg.end());
  };
  append(encode_hello(sample_hello()));
  append(encode_put_frames(sample_batch(), compress::DeflateLevel::kDefault));
  append(encode_simple(MsgType::kSeal));
  append(encode_simple(MsgType::kBye));

  WireParser parser;
  std::vector<MsgType> seen;
  for (const std::uint8_t byte : wire) {
    parser.feed({&byte, 1});
    Message msg;
    while (parser.next(&msg) == WireParser::Status::kMessage)
      seen.push_back(msg.type);
  }
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], MsgType::kHello);
  EXPECT_EQ(seen[1], MsgType::kPutFrames);
  EXPECT_EQ(seen[2], MsgType::kSeal);
  EXPECT_EQ(seen[3], MsgType::kBye);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(Protocol, DecodeEnforcesBatchLimits) {
  Limits tight;
  tight.max_batch_frames = 2;
  FrameBatch batch = sample_batch();  // 3 frames
  FrameBatch out;
  ErrCode refusal = ErrCode::kInternal;
  EXPECT_FALSE(decode_put_frames(
      parse_one(encode_put_frames(batch, compress::DeflateLevel::kStored)),
      tight, out, &refusal));
  EXPECT_EQ(refusal, ErrCode::kOversized);

  Limits tiny;
  tiny.max_frame_bytes = 16;  // every sample frame is larger
  refusal = ErrCode::kInternal;
  EXPECT_FALSE(decode_put_frames(
      parse_one(encode_put_frames(batch, compress::DeflateLevel::kStored)),
      tiny, out, &refusal));
  EXPECT_EQ(refusal, ErrCode::kOversized);

  EXPECT_TRUE(decode_put_frames(
      parse_one(encode_put_frames(batch, compress::DeflateLevel::kStored)),
      Limits{}, out));

  // A truncated body or trailing bytes are malformed, not over a limit.
  const Message whole =
      parse_one(encode_put_frames(batch, compress::DeflateLevel::kStored));
  Message truncated = whole;
  truncated.body.pop_back();
  refusal = ErrCode::kInternal;
  EXPECT_FALSE(decode_put_frames(truncated, Limits{}, out, &refusal));
  EXPECT_EQ(refusal, ErrCode::kBadMessage);
  Message trailing = whole;
  trailing.body.push_back(0);
  refusal = ErrCode::kInternal;
  EXPECT_FALSE(decode_put_frames(trailing, Limits{}, out, &refusal));
  EXPECT_EQ(refusal, ErrCode::kBadMessage);
}

TEST(Protocol, TypeMismatchedDecodeFails) {
  const Message hello = parse_one(encode_hello(sample_hello()));
  PutAck ack;
  EXPECT_FALSE(decode_put_ack(hello, ack));
  Welcome welcome;
  EXPECT_FALSE(decode_welcome(hello, welcome));
  FrameBatch batch;
  EXPECT_FALSE(decode_put_frames(hello, Limits{}, batch));
}

}  // namespace
}  // namespace cdc::net
