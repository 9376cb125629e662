#include "net/protocol.h"

#include <cstring>

#include "compress/crc32.h"
#include "obs/metrics.h"
#include "support/binary.h"
#include "tool/frame.h"

namespace cdc::net {

namespace {

/// Upper bound on the fixed-position part of a wire message: magic + type +
/// stored_raw + three maximal (10-byte) varints. A buffer at least this
/// long that still fails the header parse is malformed, not truncated.
constexpr std::size_t kMaxHeaderBytes = 3 + 3 * 10;

constexpr std::size_t kCrcBytes = 4;

std::uint8_t level_byte(compress::DeflateLevel level) noexcept {
  return static_cast<std::uint8_t>(level);
}

bool level_from_byte(std::uint8_t b, compress::DeflateLevel& out) noexcept {
  if (b > static_cast<std::uint8_t>(compress::DeflateLevel::kBest))
    return false;
  out = static_cast<compress::DeflateLevel>(b);
  return true;
}

bool read_string(support::ByteReader& in, std::string& out) {
  std::span<const std::uint8_t> bytes;
  if (!in.try_sized_bytes(bytes)) return false;
  out.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return true;
}

void write_string(support::ByteWriter& out, const std::string& s) {
  out.sized_bytes({reinterpret_cast<const std::uint8_t*>(s.data()),
                   s.size()});
}

}  // namespace

const char* err_code_name(ErrCode code) noexcept {
  switch (code) {
    case ErrCode::kBadVersion: return "bad_version";
    case ErrCode::kBadToken: return "bad_token";
    case ErrCode::kBadMessage: return "bad_message";
    case ErrCode::kOversized: return "oversized";
    case ErrCode::kQuota: return "quota";
    case ErrCode::kBadRecord: return "bad_record";
    case ErrCode::kBusy: return "busy";
    case ErrCode::kInternal: return "internal";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_message(MsgType type, std::uint64_t meta,
                                         std::span<const std::uint8_t> body,
                                         compress::DeflateLevel level) {
  static obs::Counter& msgs = obs::counter("net.wire.msgs_encoded");
  tool::FrameJob job;
  job.codec = static_cast<std::uint8_t>(type);
  job.meta = meta;
  job.compress = level != compress::DeflateLevel::kStored;
  job.level = level;
  job.payload.assign(body.begin(), body.end());
  std::vector<std::uint8_t> framed = tool::encode_frame(job);
  const std::uint32_t crc = compress::crc32(framed);
  for (int i = 0; i < 4; ++i)
    framed.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  msgs.add(1);
  return framed;
}

std::vector<std::uint8_t> encode_hello(const Hello& hello) {
  support::ByteWriter body;
  write_string(body, hello.token);
  write_string(body, hello.record);
  body.u8(static_cast<std::uint8_t>(hello.intent));
  body.u8(level_byte(hello.level));
  body.u8(hello.resumable ? 1u : 0u);
  // HELLO itself always rides at the fast level: the session level it
  // *requests* is not negotiated yet.
  return encode_message(MsgType::kHello, hello.version, body.view(),
                        compress::DeflateLevel::kFast);
}

bool decode_hello(const Message& msg, Hello& out) {
  if (msg.type != MsgType::kHello || msg.meta > 0xff) return false;
  out.version = static_cast<std::uint8_t>(msg.meta);
  support::ByteReader in(msg.body);
  std::uint8_t intent = 0;
  std::uint8_t level = 0;
  std::uint8_t flags = 0;
  if (!read_string(in, out.token) || !read_string(in, out.record) ||
      !in.try_u8(intent) || !in.try_u8(level) || !in.try_u8(flags) ||
      (flags & ~1u) != 0 || !in.exhausted())
    return false;
  out.resumable = (flags & 1u) != 0;
  if (intent > static_cast<std::uint8_t>(Intent::kReplay)) return false;
  out.intent = static_cast<Intent>(intent);
  return level_from_byte(level, out.level);
}

std::vector<std::uint8_t> encode_welcome(const Welcome& w) {
  support::ByteWriter body;
  body.u8(level_byte(w.level));
  body.varint(w.session_id);
  body.varint(w.limits.max_message_body);
  body.varint(w.limits.max_frame_bytes);
  body.varint(w.limits.max_batch_frames);
  return encode_message(MsgType::kWelcome, w.version, body.view(),
                        compress::DeflateLevel::kFast);
}

bool decode_welcome(const Message& msg, Welcome& out) {
  if (msg.type != MsgType::kWelcome || msg.meta > 0xff) return false;
  out.version = static_cast<std::uint8_t>(msg.meta);
  support::ByteReader in(msg.body);
  std::uint8_t level = 0;
  if (!in.try_u8(level) || !level_from_byte(level, out.level)) return false;
  return in.try_varint(out.session_id) &&
         in.try_varint(out.limits.max_message_body) &&
         in.try_varint(out.limits.max_frame_bytes) &&
         in.try_varint(out.limits.max_batch_frames) && in.exhausted();
}

std::vector<std::uint8_t> encode_put_frames(const FrameBatch& batch,
                                            compress::DeflateLevel level) {
  support::ByteWriter body;
  body.varint(batch.frames.size());
  for (const WireFrame& f : batch.frames) {
    const tool::FrameJob& job = f.job;
    body.svarint(f.key.rank);
    body.varint(f.key.callsite);
    body.u8(job.codec);
    body.varint(job.meta);
    body.u8((job.compress ? 1u : 0u) | (job.epoch.has_value() ? 2u : 0u));
    if (job.epoch.has_value()) {
      body.varint(job.epoch->matched);
      body.varint(job.epoch->unmatched);
    }
    body.sized_bytes(job.payload);
  }
  return encode_message(MsgType::kPutFrames, batch.seq, body.view(), level);
}

std::size_t put_frames_entry_bytes(const WireFrame& frame) {
  using support::varint_size;
  const tool::FrameJob& job = frame.job;
  std::size_t bytes = varint_size(support::zigzag_encode(frame.key.rank)) +
                      varint_size(frame.key.callsite) + 1 +
                      varint_size(job.meta) + 1;
  if (job.epoch.has_value())
    bytes += varint_size(job.epoch->matched) +
             varint_size(job.epoch->unmatched);
  return bytes + varint_size(job.payload.size()) + job.payload.size();
}

bool decode_put_frames(const Message& msg, const Limits& limits,
                       FrameBatch& out, ErrCode* refusal) {
  const auto refuse = [refusal](ErrCode code) {
    if (refusal != nullptr) *refusal = code;
    return false;
  };
  const auto malformed = [&] { return refuse(ErrCode::kBadMessage); };
  if (msg.type != MsgType::kPutFrames) return malformed();
  out.seq = msg.meta;
  out.frames.clear();
  support::ByteReader in(msg.body);
  std::uint64_t count = 0;
  if (!in.try_varint(count)) return malformed();
  if (count > limits.max_batch_frames) return refuse(ErrCode::kOversized);
  out.frames.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    WireFrame f;
    std::int64_t rank = 0;
    std::uint64_t callsite = 0;
    std::uint8_t flags = 0;
    if (!in.try_svarint(rank) || !in.try_varint(callsite) ||
        !in.try_u8(f.job.codec) || !in.try_varint(f.job.meta) ||
        !in.try_u8(flags) || (flags & ~3u) != 0)
      return malformed();
    f.key.rank = static_cast<minimpi::Rank>(rank);
    f.key.callsite = static_cast<minimpi::CallsiteId>(callsite);
    f.job.compress = (flags & 1u) != 0;
    if ((flags & 2u) != 0) {
      runtime::EpochMeta epoch;
      if (!in.try_varint(epoch.matched) || !in.try_varint(epoch.unmatched))
        return malformed();
      f.job.epoch = epoch;
    }
    std::span<const std::uint8_t> payload;
    if (!in.try_sized_bytes(payload)) return malformed();
    if (payload.size() > limits.max_frame_bytes)
      return refuse(ErrCode::kOversized);
    f.job.payload.assign(payload.begin(), payload.end());
    out.frames.push_back(std::move(f));
  }
  if (!in.exhausted()) return malformed();
  return true;
}

std::vector<std::uint8_t> encode_put_ack(const PutAck& ack) {
  support::ByteWriter body;
  body.varint(ack.frames_ingested);
  body.varint(ack.bytes_ingested);
  return encode_message(MsgType::kPutAck, ack.seq, body.view(),
                        compress::DeflateLevel::kStored);
}

bool decode_put_ack(const Message& msg, PutAck& out) {
  if (msg.type != MsgType::kPutAck) return false;
  out.seq = msg.meta;
  support::ByteReader in(msg.body);
  return in.try_varint(out.frames_ingested) &&
         in.try_varint(out.bytes_ingested) && in.exhausted();
}

std::vector<std::uint8_t> encode_resumed(const Resumed& r) {
  support::ByteWriter body;
  body.varint(r.frames_ingested);
  body.varint(r.bytes_ingested);
  return encode_message(MsgType::kResumed, r.last_seq, body.view(),
                        compress::DeflateLevel::kStored);
}

bool decode_resumed(const Message& msg, Resumed& out) {
  if (msg.type != MsgType::kResumed) return false;
  out.last_seq = msg.meta;
  support::ByteReader in(msg.body);
  return in.try_varint(out.frames_ingested) &&
         in.try_varint(out.bytes_ingested) && in.exhausted();
}

std::vector<std::uint8_t> encode_sealed(const Sealed& sealed) {
  support::ByteWriter body;
  body.varint(sealed.container_bytes);
  body.varint(sealed.streams);
  body.varint(sealed.frames);
  return encode_message(MsgType::kSealed, 0, body.view(),
                        compress::DeflateLevel::kStored);
}

bool decode_sealed(const Message& msg, Sealed& out) {
  if (msg.type != MsgType::kSealed) return false;
  support::ByteReader in(msg.body);
  return in.try_varint(out.container_bytes) && in.try_varint(out.streams) &&
         in.try_varint(out.frames) && in.exhausted();
}

std::vector<std::uint8_t> encode_replay_window(const ReplayWindowReq& req) {
  support::ByteWriter body;
  body.varint(req.epoch_lo);
  body.varint(req.epoch_hi);
  return encode_message(MsgType::kReplayWindow, 0, body.view(),
                        compress::DeflateLevel::kStored);
}

bool decode_replay_window(const Message& msg, ReplayWindowReq& out) {
  if (msg.type != MsgType::kReplayWindow) return false;
  support::ByteReader in(msg.body);
  return in.try_varint(out.epoch_lo) && in.try_varint(out.epoch_hi) &&
         in.exhausted();
}

std::vector<std::uint8_t> encode_window_stream(const WindowStream& ws,
                                               compress::DeflateLevel level) {
  support::ByteWriter body;
  body.svarint(ws.key.rank);
  body.varint(ws.key.callsite);
  body.varint(ws.first_epoch);
  body.u8(ws.seeked ? 1 : 0);
  body.sized_bytes(ws.bytes);
  // Window bytes are already DEFLATE frames; recompressing them buys
  // nothing, so WINDOW_STREAM always rides stored unless asked otherwise.
  return encode_message(MsgType::kWindowStream, 0, body.view(), level);
}

bool decode_window_stream(const Message& msg, WindowStream& out) {
  if (msg.type != MsgType::kWindowStream) return false;
  support::ByteReader in(msg.body);
  std::int64_t rank = 0;
  std::uint64_t callsite = 0;
  std::uint8_t seeked = 0;
  std::span<const std::uint8_t> bytes;
  if (!in.try_svarint(rank) || !in.try_varint(callsite) ||
      !in.try_varint(out.first_epoch) || !in.try_u8(seeked) ||
      !in.try_sized_bytes(bytes) || !in.exhausted())
    return false;
  out.key.rank = static_cast<minimpi::Rank>(rank);
  out.key.callsite = static_cast<minimpi::CallsiteId>(callsite);
  out.seeked = seeked != 0;
  out.bytes.assign(bytes.begin(), bytes.end());
  return true;
}

std::vector<std::uint8_t> encode_window_done(const WindowDone& done) {
  support::ByteWriter body;
  body.varint(done.streams);
  body.u8(done.all_seeked ? 1 : 0);
  return encode_message(MsgType::kWindowDone, 0, body.view(),
                        compress::DeflateLevel::kStored);
}

bool decode_window_done(const Message& msg, WindowDone& out) {
  if (msg.type != MsgType::kWindowDone) return false;
  support::ByteReader in(msg.body);
  std::uint8_t all = 0;
  if (!in.try_varint(out.streams) || !in.try_u8(all) || !in.exhausted())
    return false;
  out.all_seeked = all != 0;
  return true;
}

std::vector<std::uint8_t> encode_inspect(InspectKind kind) {
  const std::uint8_t body[1] = {static_cast<std::uint8_t>(kind)};
  return encode_message(MsgType::kInspect, 0, body,
                        compress::DeflateLevel::kStored);
}

bool decode_inspect(const Message& msg, InspectKind& out) {
  if (msg.type != MsgType::kInspect || msg.body.size() != 1 ||
      msg.body[0] > static_cast<std::uint8_t>(InspectKind::kGaps))
    return false;
  out = static_cast<InspectKind>(msg.body[0]);
  return true;
}

std::vector<std::uint8_t> encode_report(const std::string& json) {
  return encode_message(
      MsgType::kReport, 0,
      {reinterpret_cast<const std::uint8_t*>(json.data()), json.size()},
      compress::DeflateLevel::kFast);
}

std::vector<std::uint8_t> encode_error(ErrCode code, const std::string& text) {
  return encode_message(
      MsgType::kError, static_cast<std::uint64_t>(code),
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()},
      compress::DeflateLevel::kStored);
}

bool decode_error(const Message& msg, ErrCode& code, std::string& text) {
  if (msg.type != MsgType::kError) return false;
  if (msg.meta == 0 ||
      msg.meta > static_cast<std::uint64_t>(ErrCode::kInternal))
    return false;
  code = static_cast<ErrCode>(msg.meta);
  text.assign(reinterpret_cast<const char*>(msg.body.data()),
              msg.body.size());
  return true;
}

std::vector<std::uint8_t> encode_simple(MsgType type) {
  return encode_message(type, 0, {}, compress::DeflateLevel::kStored);
}

// --- WireParser ----------------------------------------------------------

void WireParser::feed(std::span<const std::uint8_t> bytes) {
  if (broken_) return;  // terminal; don't grow the buffer further
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

WireParser::Status WireParser::fail(std::string why, ErrCode code) {
  broken_ = true;
  error_ = std::move(why);
  error_code_ = code;
  buffer_.clear();
  consumed_ = 0;
  obs::counter("net.wire.parse_errors").add(1);
  return Status::kMalformed;
}

WireParser::Status WireParser::next(Message* out) {
  if (broken_) return Status::kMalformed;
  const std::span<const std::uint8_t> avail =
      std::span<const std::uint8_t>(buffer_).subspan(consumed_);
  if (avail.empty()) return Status::kNeedMore;

  // Fixed fields + length varints. A parse failure here is truncation
  // unless we already hold the longest possible header.
  support::ByteReader header(avail);
  std::uint8_t magic = 0;
  std::uint8_t type = 0;
  std::uint8_t stored_raw = 0;
  std::uint64_t meta = 0;
  std::uint64_t raw_len = 0;
  std::uint64_t body_len = 0;
  if (!header.try_u8(magic)) return Status::kNeedMore;
  if (magic != tool::kFrameMagic)
    return fail("bad message magic byte");
  if (!header.try_u8(type) || !header.try_u8(stored_raw) ||
      !header.try_varint(meta) || !header.try_varint(raw_len) ||
      !header.try_varint(body_len)) {
    return avail.size() >= kMaxHeaderBytes
               ? fail("unparseable message header")
               : Status::kNeedMore;
  }
  if (stored_raw > 1) return fail("bad stored_raw flag");
  // Oversized length prefixes are rejected *before* waiting for the bytes
  // they announce — the hostile-length guard.
  if (raw_len > limits_.max_message_body)
    return fail("message raw length exceeds limit", ErrCode::kOversized);
  if (body_len > limits_.max_message_body)
    return fail("message body length exceeds limit", ErrCode::kOversized);
  if (stored_raw == 1 && raw_len != body_len)
    return fail("stored message with mismatched lengths");

  const std::size_t header_size = header.position();
  const std::size_t frame_size =
      header_size + static_cast<std::size_t>(body_len);
  if (avail.size() < frame_size + kCrcBytes) return Status::kNeedMore;

  const std::span<const std::uint8_t> frame = avail.subspan(0, frame_size);
  std::uint32_t wire_crc = 0;
  for (int i = 0; i < 4; ++i)
    wire_crc |= static_cast<std::uint32_t>(avail[frame_size + i]) << (8 * i);
  if (compress::crc32(frame) != wire_crc)
    return fail("message crc mismatch");

  // The CRC held, so the frame bytes are exactly what the peer sent; any
  // failure from here is a malformed *message*, not line noise. Reuse the
  // storage-frame decoder for the inflate + raw_len validation.
  support::ByteReader frame_reader(frame);
  std::optional<tool::Frame> decoded = tool::read_frame(frame_reader);
  if (!decoded.has_value() || !frame_reader.exhausted())
    return fail("message frame decode failed");

  out->type = static_cast<MsgType>(decoded->codec);
  out->meta = decoded->meta;
  out->body = std::move(decoded->payload);
  consumed_ += frame_size + kCrcBytes;
  // Compact once the parsed-off prefix dominates, so a long-lived
  // connection doesn't accrete its whole history.
  if (consumed_ > 4096 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  obs::counter("net.wire.msgs_decoded").add(1);
  return Status::kMessage;
}

}  // namespace cdc::net
