// The CDC record/replay service wire protocol (DESIGN.md §13).
//
// Every message on the wire is one *tool frame* — the same length-prefixed
// container the storage layer already writes (tool/frame.h):
//
//   u8 0xC4 | u8 type | u8 stored_raw | varint meta |
//   varint raw_len | varint body_len | body | u32 crc32
//
// with the frame's codec byte repurposed as the message type, the meta
// varint as a per-type scalar (protocol version in HELLO, batch sequence
// number in PUT_FRAMES, error code in ERROR), and a CRC-32 of every
// preceding message byte appended — the container-frame trick applied to
// the socket. Message bodies ride DEFLATE-compressed at the session's
// negotiated level unless that would grow them (stored_raw), so the wire
// format inherits the codec stack for free.
//
// The protocol is versioned (HELLO carries the client's version, WELCOME
// the server's; the server refuses any version but kProtocolVersion with
// kErrBadVersion) and hard-limited: a length prefix above
// Limits::max_message_body aborts the parse *before* any buffering, so a
// hostile 2^60-byte announcement costs the server nothing.
//
// Conversation shape (client → server unless noted):
//   HELLO(token, record, intent, level, flags)  → WELCOME | ERROR
//   intent = kIngest:  [RESUME → RESUMED(last_durable_seq)]
//                      PUT_FRAMES* → PUT_ACK (per batch, ← server)
//                      SEAL → SEALED
//   intent = kReplay:  REPLAY_WINDOW(lo, hi) → WINDOW_STREAM* WINDOW_DONE
//                      INSPECT(kind) → REPORT
//   BYE ends any session gracefully.
//
// Ingest can be crash-safe and resumable. HELLO's flags byte (bit 0 =
// resumable) asks the server to journal per-batch durability next to the
// container; a reconnecting client may then reopen the same record, ask
// RESUME, and learn from RESUMED which batch prefix is already
// fsync-durable — batches at or below that sequence are deduplicated
// server-side, so re-sending from last_durable_seq+1 yields a
// byte-identical sealed container.
//
// Parsing is incremental and hostile-input-safe: WireParser consumes raw
// socket bytes and yields complete, CRC-verified messages, `kNeedMore`
// while a message is still in flight, or a terminal `kMalformed` with a
// diagnostic — it never aborts, whatever the bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compress/deflate.h"
#include "runtime/storage.h"
#include "tool/frame.h"

namespace cdc::net {

inline constexpr std::uint8_t kProtocolVersion = 2;

/// Message types (the tool-frame codec byte).
enum class MsgType : std::uint8_t {
  kHello = 1,
  kWelcome = 2,
  kPutFrames = 3,
  kPutAck = 4,
  kSeal = 5,
  kSealed = 6,
  kReplayWindow = 7,
  kWindowStream = 8,
  kWindowDone = 9,
  kInspect = 10,
  kReport = 11,
  kError = 12,
  kBye = 13,
  kResume = 14,   ///< client asks for the durable high-water mark
  kResumed = 15,  ///< server replies with last_durable_seq + totals
};

/// ERROR message codes (the meta varint of a kError message).
enum class ErrCode : std::uint64_t {
  kBadVersion = 1,   ///< HELLO version other than kProtocolVersion
  kBadToken = 2,     ///< unknown tenant token
  kBadMessage = 3,   ///< malformed or out-of-sequence message
  kOversized = 4,    ///< frame/batch above the negotiated limits
  kQuota = 5,        ///< tenant byte or record quota exhausted
  kBadRecord = 6,    ///< unknown record / record not sealed / name taken
  kBusy = 7,         ///< server shutting down or session aborted
  kInternal = 8,     ///< server-side failure (I/O, ...)
};

[[nodiscard]] const char* err_code_name(ErrCode code) noexcept;

/// What a HELLO wants to do with its record.
enum class Intent : std::uint8_t {
  kIngest = 0,   ///< create the record and stream frames in
  kReplay = 1,   ///< open a sealed record for windowed replay / inspection
};

/// Hard parser limits. Negotiated per session in WELCOME (the server may
/// lower them), but never raised above these compile-time bounds.
struct Limits {
  /// Max decompressed body of one message. PUT_FRAMES batches and window
  /// stream bytes must fit; 16 MiB is ~100x the largest chunk the recorder
  /// seals.
  std::uint64_t max_message_body = 16ull << 20;
  /// Max raw payload of a single record frame inside a batch.
  std::uint64_t max_frame_bytes = 4ull << 20;
  /// Max frames per PUT_FRAMES batch.
  std::uint64_t max_batch_frames = 4096;
};

/// One parsed wire message.
struct Message {
  MsgType type = MsgType::kError;
  std::uint64_t meta = 0;
  std::vector<std::uint8_t> body;  ///< decompressed
};

// --- typed payloads ------------------------------------------------------

struct Hello {
  std::uint8_t version = kProtocolVersion;  ///< rides in the meta varint
  std::string token;
  std::string record;
  Intent intent = Intent::kIngest;
  compress::DeflateLevel level = compress::DeflateLevel::kDefault;
  /// Flags bit 0: journal this ingest session so it survives a crash or
  /// disconnect and can be reopened by a later resumable HELLO.
  bool resumable = false;
};

struct Welcome {
  std::uint8_t version = kProtocolVersion;  ///< rides in the meta varint
  compress::DeflateLevel level = compress::DeflateLevel::kDefault;
  std::uint64_t session_id = 0;
  Limits limits;
};

/// One record frame inside a PUT_FRAMES batch: the job the recorder hands
/// its FrameSink, keyed by stream. The wire carries every job field but
/// `level` — the server encodes each frame at the session's level.
struct WireFrame {
  runtime::StreamKey key;
  tool::FrameJob job;
};

struct FrameBatch {
  std::uint64_t seq = 0;  ///< rides in the meta varint; echoed by PUT_ACK
  std::vector<WireFrame> frames;
};

struct PutAck {
  std::uint64_t seq = 0;  ///< rides in the meta varint
  std::uint64_t frames_ingested = 0;  ///< session total after this batch
  std::uint64_t bytes_ingested = 0;   ///< raw payload bytes, session total
};

struct Sealed {
  std::uint64_t container_bytes = 0;
  std::uint64_t streams = 0;
  std::uint64_t frames = 0;
};

/// RESUMED: the server's durable high-water mark for a reopened session.
/// Batches with seq <= last_seq are already fsync-durable (and journaled);
/// the client re-sends from last_seq + 1. The totals mirror what the
/// PUT_ACK for batch last_seq reported.
struct Resumed {
  std::uint64_t last_seq = 0;  ///< rides in the meta varint
  std::uint64_t frames_ingested = 0;
  std::uint64_t bytes_ingested = 0;
};

struct ReplayWindowReq {
  std::uint64_t epoch_lo = 0;
  std::uint64_t epoch_hi = 0;
};

struct WindowStream {
  runtime::StreamKey key;
  std::uint64_t first_epoch = 0;
  bool seeked = false;
  std::vector<std::uint8_t> bytes;  ///< concatenated frame payloads
};

struct WindowDone {
  std::uint64_t streams = 0;
  bool all_seeked = false;
};

enum class InspectKind : std::uint8_t {
  kVerify = 0,    ///< ContainerReader::verify summary
  kPipeline = 1,  ///< obs::PipelineReport of the container
  kGaps = 2,      ///< degraded-replay gap report
};

// --- encode --------------------------------------------------------------

/// Encodes a complete wire message: tool frame (type in the codec byte,
/// `meta` in the meta varint, `body` DEFLATE-compressed at `level`) plus
/// the trailing CRC-32. Deterministic for a given (message, level).
[[nodiscard]] std::vector<std::uint8_t> encode_message(
    MsgType type, std::uint64_t meta, std::span<const std::uint8_t> body,
    compress::DeflateLevel level = compress::DeflateLevel::kDefault);

[[nodiscard]] std::vector<std::uint8_t> encode_hello(const Hello& hello);
[[nodiscard]] std::vector<std::uint8_t> encode_welcome(const Welcome& w);
[[nodiscard]] std::vector<std::uint8_t> encode_put_frames(
    const FrameBatch& batch, compress::DeflateLevel level);
/// Bytes `frame` adds to a PUT_FRAMES body (the body before DEFLATE is a
/// varint frame count followed by one such entry per frame).
[[nodiscard]] std::size_t put_frames_entry_bytes(const WireFrame& frame);
[[nodiscard]] std::vector<std::uint8_t> encode_put_ack(const PutAck& ack);
[[nodiscard]] std::vector<std::uint8_t> encode_resumed(const Resumed& r);
[[nodiscard]] std::vector<std::uint8_t> encode_sealed(const Sealed& sealed);
[[nodiscard]] std::vector<std::uint8_t> encode_replay_window(
    const ReplayWindowReq& req);
[[nodiscard]] std::vector<std::uint8_t> encode_window_stream(
    const WindowStream& ws, compress::DeflateLevel level);
[[nodiscard]] std::vector<std::uint8_t> encode_window_done(
    const WindowDone& done);
[[nodiscard]] std::vector<std::uint8_t> encode_inspect(InspectKind kind);
[[nodiscard]] std::vector<std::uint8_t> encode_report(const std::string& json);
[[nodiscard]] std::vector<std::uint8_t> encode_error(ErrCode code,
                                                     const std::string& text);
[[nodiscard]] std::vector<std::uint8_t> encode_simple(MsgType type);

// --- typed decode (body → struct; false on malformed) --------------------

[[nodiscard]] bool decode_hello(const Message& msg, Hello& out);
[[nodiscard]] bool decode_welcome(const Message& msg, Welcome& out);
/// On failure sets *refusal, when given, to the ERROR code the batch
/// earns: kOversized for more frames than max_batch_frames or a payload
/// above max_frame_bytes, kBadMessage for anything malformed (not
/// PUT_FRAMES, truncated, trailing bytes, an unknown frame flag).
[[nodiscard]] bool decode_put_frames(const Message& msg, const Limits& limits,
                                     FrameBatch& out,
                                     ErrCode* refusal = nullptr);
[[nodiscard]] bool decode_put_ack(const Message& msg, PutAck& out);
[[nodiscard]] bool decode_resumed(const Message& msg, Resumed& out);
[[nodiscard]] bool decode_sealed(const Message& msg, Sealed& out);
[[nodiscard]] bool decode_replay_window(const Message& msg,
                                        ReplayWindowReq& out);
[[nodiscard]] bool decode_window_stream(const Message& msg, WindowStream& out);
[[nodiscard]] bool decode_window_done(const Message& msg, WindowDone& out);
[[nodiscard]] bool decode_inspect(const Message& msg, InspectKind& out);
/// ERROR carries its code in meta and a UTF-8 diagnostic as the body.
[[nodiscard]] bool decode_error(const Message& msg, ErrCode& code,
                                std::string& text);

// --- incremental parse ---------------------------------------------------

/// Streaming message parser over raw socket bytes. Feed bytes as they
/// arrive; next() yields complete CRC-verified messages. A parse error is
/// terminal: the connection's byte stream is unrecoverable past a framing
/// error (lengths can no longer be trusted), matching the per-connection
/// error contract — the server sends ERROR and closes.
class WireParser {
 public:
  explicit WireParser(const Limits& limits = {}) : limits_(limits) {}

  /// Appends raw bytes from the socket.
  void feed(std::span<const std::uint8_t> bytes);

  enum class Status {
    kMessage,   ///< *out filled with the next message
    kNeedMore,  ///< the buffered bytes end mid-message
    kMalformed, ///< terminal framing error; see error()
  };

  /// Extracts the next complete message, if any.
  [[nodiscard]] Status next(Message* out);

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  /// The ERROR code a kMalformed earns: kOversized for a length prefix
  /// above max_message_body, kBadMessage for every other framing error.
  [[nodiscard]] ErrCode error_code() const noexcept { return error_code_; }
  /// Bytes buffered but not yet consumed (bounded by one message).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  [[nodiscard]] Status fail(std::string why,
                            ErrCode code = ErrCode::kBadMessage);

  Limits limits_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< parsed-off prefix, compacted lazily
  bool broken_ = false;
  std::string error_;
  ErrCode error_code_ = ErrCode::kBadMessage;
};

}  // namespace cdc::net
