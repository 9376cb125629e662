// Blocking client for the record/replay service (the library behind the
// `cdc_client` CLI and the fig23 load generator).
//
// A Client owns one TCP connection and one protocol session: connect()
// dials, speaks HELLO, and returns an authenticated session whose
// negotiated parameters (compression level, limits) are in welcome().
// Ingest uses a bounded ack window — put() blocks once four batches are
// unacknowledged, so a client can never outrun the server's backpressure
// by more than the window — and records a submit→ack latency sample per
// batch for the bench's percentile report.
//
// Deadlines are poll(2)-based, not SO_RCVTIMEO: connect() waits at most
// `connect_timeout_ms` for the three-way handshake, and every read waits
// at most `timeout_ms` for the next byte, so a server that accepts and
// then goes silent cannot wedge the client.
//
// Crash survival (DESIGN.md §14): with `resumable` set the client keeps
// every unacked PUT_FRAMES batch, encoded, in a resend buffer. When a call
// fails retryably — connection refused/reset, EOF, read timeout, or a
// server ERROR(kBusy) GOAWAY — and `max_reconnects` allows it, the client
// redials with bounded jittered exponential backoff (Options::backoff_seed),
// renegotiates HELLO(resumable), asks RESUME → RESUMED(last_durable_seq),
// drops buffered batches the server already holds durably, re-sends the
// rest in order, and picks the original call back up. Because frame
// encoding is deterministic and the server deduplicates by sequence
// number, the sealed record is byte-identical to an uninterrupted upload.
//
// NetFrameSink adapts the connection to the tool::FrameSink seam: the same
// recorder/harness code that writes a local container through an
// InlineFrameSink streams to the service instead, in batches sized to the
// limits the server negotiated in WELCOME.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "support/rng.h"
#include "tool/frame_sink.h"

namespace cdc::net {

class Client {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::string token;
    std::string record;
    Intent intent = Intent::kIngest;
    compress::DeflateLevel level = compress::DeflateLevel::kDefault;
    /// Per-read deadline (poll before recv); 0 = block forever.
    std::uint32_t timeout_ms = 30000;
    /// Deadline for the TCP connect itself; 0 = block forever.
    std::uint32_t connect_timeout_ms = 10000;
    /// Ask the server to journal this ingest session for crash-safe
    /// resume, and arm the client-side resend buffer.
    bool resumable = false;
    /// Reconnect+resume attempts after a retryable failure (0 = the
    /// pre-resume behaviour: any failure kills the session).
    std::uint32_t max_reconnects = 0;
    /// Seeds the jitter of the sleep between reconnect attempts
    /// (10 ms × 2^attempt, capped at 1 s, ±25%).
    std::uint64_t backoff_seed = 1;
  };

  /// Dials, sends HELLO, and waits for WELCOME. Returns nullptr with
  /// *error set on connection failure or an ERROR reply (the server's
  /// diagnostic is included verbatim).
  static std::unique_ptr<Client> connect(const Options& options,
                                         std::string* error);

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] const Welcome& welcome() const noexcept { return welcome_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Sends one batch (seq assigned internally), first draining acks until
  /// the in-flight window has room. False on any session failure; see
  /// last_error(). With reconnects enabled, transparently recovers from
  /// retryable failures before reporting one.
  [[nodiscard]] bool put(std::vector<WireFrame> frames);

  /// Drains every outstanding ack, sends SEAL, and waits for SEALED.
  [[nodiscard]] bool seal(Sealed* out = nullptr);

  /// Explicit RESUME → RESUMED exchange (ingest, before any put() on
  /// this connection). Fills `out` with the server's durable high-water
  /// mark. With `skip_acked` the next put() continues numbering after the
  /// durable prefix — the "fresh process resumes an old upload" path;
  /// without it the caller re-sends from seq 1 and relies on server-side
  /// dedup (the oracle path).
  [[nodiscard]] bool resume(Resumed* out, bool skip_acked = true);

  /// Requests epochs [lo, hi) of every stream. Fills `streams` (in server
  /// order) and `done`. Replay-intent sessions only.
  [[nodiscard]] bool replay_window(std::uint64_t epoch_lo,
                                   std::uint64_t epoch_hi,
                                   std::vector<WindowStream>* streams,
                                   WindowDone* done);

  /// Fetches one INSPECT report as a JSON document.
  [[nodiscard]] bool inspect(InspectKind kind, std::string* json);

  /// Best-effort BYE + close. Further calls fail. Idempotent.
  void bye();

  /// True once any call failed; the session is dead (the protocol has no
  /// resync — reconnect instead).
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& last_error() const noexcept {
    return last_error_;
  }
  /// Error code of the last server ERROR reply (kInternal when the
  /// failure was local: connect, short read, parse).
  [[nodiscard]] ErrCode last_code() const noexcept { return last_code_; }

  /// One submit→ack wall-clock sample per acknowledged batch, in ns.
  [[nodiscard]] const std::vector<std::uint64_t>& ack_latency_ns()
      const noexcept {
    return latency_ns_;
  }
  [[nodiscard]] std::uint64_t frames_acked() const noexcept {
    return frames_acked_;
  }
  [[nodiscard]] std::uint64_t bytes_acked() const noexcept {
    return bytes_acked_;
  }
  /// Successful reconnect+resume cycles this session survived.
  [[nodiscard]] std::uint64_t reconnects() const noexcept {
    return reconnects_;
  }
  /// Batches re-sent across all recoveries (durably-held ones are dropped
  /// before resend, so this counts genuine re-transmission).
  [[nodiscard]] std::uint64_t batches_resent() const noexcept {
    return batches_resent_;
  }

  /// The raw socket fd — the fault-plan hooks (mid-stream disconnect,
  /// garbage injection) reach around the protocol with it. -1 when closed.
  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// Sends raw bytes outside the protocol (fault injection only).
  [[nodiscard]] bool send_raw(std::span<const std::uint8_t> bytes);

 private:
  explicit Client(Options options)
      : options_(std::move(options)),
        jitter_(options_.backoff_seed ^ 0xc11e47ull) {}

  /// Dials (with the connect deadline) and runs HELLO → WELCOME. On
  /// success the connection is live and failed_ is clear.
  [[nodiscard]] bool handshake();
  /// The reconnect+resume loop; true restores an operating session with
  /// the resend buffer reconciled against the server's durable state.
  [[nodiscard]] bool recover();
  /// Whether the current failure is worth a reconnect: local I/O (refused,
  /// reset, EOF, timeout) or a server GOAWAY (kBusy) — never a semantic
  /// rejection like kBadToken or kQuota.
  [[nodiscard]] bool retryable() const noexcept;
  void backoff_sleep(std::uint32_t attempt);

  [[nodiscard]] bool send_all(std::span<const std::uint8_t> bytes);
  /// Blocks until one complete message arrives (or deadline/EOF/parse
  /// error, which fail the session).
  [[nodiscard]] bool read_message(Message* out);
  /// Handles one PUT_ACK: latency sample + resend-buffer bookkeeping.
  void note_ack(const PutAck& ack);
  [[nodiscard]] bool fail(std::string why, ErrCode code = ErrCode::kInternal,
                          bool local = false);
  /// True when `msg` is a server ERROR; fails the session with its text.
  [[nodiscard]] bool is_error(const Message& msg);

  Options options_;
  int fd_ = -1;
  WireParser parser_;
  Welcome welcome_;
  bool failed_ = false;
  bool local_fail_ = false;  ///< last failure was I/O, not a server verdict
  std::string last_error_;
  ErrCode last_code_ = ErrCode::kInternal;

  std::uint64_t next_seq_ = 0;
  /// Unacked batches, encoded and ready to re-send after a reconnect.
  /// Doubles as the in-flight window (acks arrive in sequence order).
  struct PendingBatch {
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> bytes;  ///< encoded PUT_FRAMES message
    std::uint64_t sent_ns = 0;        ///< steady_clock at (first) send
  };
  std::deque<PendingBatch> pending_;
  bool seal_sent_ = false;
  /// Set when a reconnect discovers the record already sealed server-side
  /// (the crash ate only the SEALED reply); seal() then reports success.
  bool sealed_remote_ = false;
  std::vector<std::uint64_t> latency_ns_;
  std::uint64_t frames_acked_ = 0;
  std::uint64_t bytes_acked_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t batches_resent_ = 0;
  support::Xoshiro256 jitter_;
};

/// tool::FrameSink over a Client ingest session: buffers submitted jobs
/// and ships them as PUT_FRAMES batches of at most 256 frames, or once
/// their payloads reach 1 MiB. Both bounds are clamped by the session's
/// negotiated limits: a batch never holds more than max_batch_frames, and
/// its PUT_FRAMES body never exceeds max_message_body. submit() cannot
/// report errors (the seam is void); check ok() / call flush() before
/// sealing.
class NetFrameSink final : public tool::FrameSink {
 public:
  explicit NetFrameSink(Client* client);

  void submit(const runtime::StreamKey& key, tool::FrameJob job) override;

  /// Ships the buffered partial batch, if any.
  [[nodiscard]] bool flush();
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  Client* client_;
  std::size_t max_frames_;
  std::size_t max_body_;  ///< frame-entry bytes one PUT_FRAMES body holds
  std::vector<WireFrame> pending_;
  std::size_t payload_bytes_ = 0;  ///< sum of pending payload sizes
  std::size_t body_bytes_ = 0;     ///< pending frames' encoded body bytes
  bool ok_ = true;
};

/// Uploads the sealed container at `path` as the ingest record `options`
/// names and seals it, re-framing each source frame at the negotiated
/// level: the copy is byte-identical when that is the level the source
/// was recorded at. Refuses a source that fails ContainerReader::verify().
/// False with *error set on any failure.
[[nodiscard]] bool put_container(const Client::Options& options,
                                 const std::string& path, Sealed* sealed,
                                 std::string* error);

}  // namespace cdc::net
