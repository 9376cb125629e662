#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "obs/metrics.h"
#include "store/container_reader.h"
#include "tool/options.h"

namespace cdc::net {

namespace {

/// Unacked PUT_FRAMES batches allowed in flight before put() blocks.
constexpr std::size_t kMaxInflight = 4;
/// NetFrameSink's batch bounds, before the session's limits clamp them.
constexpr std::size_t kSinkBatchFrames = 256;
constexpr std::size_t kSinkBatchPayloadBytes = 1u << 20;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

/// Deadline-bounded TCP connect: non-blocking connect, poll for
/// writability, then back to blocking mode. Returns -1 with *error set.
int dial(const Client::Options& options, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr)
      *error = "connect " + options.host + ":" +
               std::to_string(options.port) + ": " + why;
    return -1;
  };
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail(std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return fail("bad address");
  }
  if (!set_nonblocking(fd, true)) {
    ::close(fd);
    return fail("fcntl");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (errno != EINPROGRESS) {
      const int saved = errno;
      ::close(fd);
      return fail(std::strerror(saved));
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout = options.connect_timeout_ms > 0
                            ? static_cast<int>(options.connect_timeout_ms)
                            : -1;
    const int ready = ::poll(&pfd, 1, timeout);
    if (ready <= 0) {
      ::close(fd);
      return fail(ready == 0 ? "timed out" : std::strerror(errno));
    }
    int so_error = 0;
    socklen_t len = sizeof so_error;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      ::close(fd);
      return fail(std::strerror(so_error));
    }
  }
  set_nonblocking(fd, false);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (options.timeout_ms > 0) {
    // Reads use poll deadlines; a send timeout still bounds the rare
    // fully-wedged-peer case where the socket buffer never drains.
    timeval tv{};
    tv.tv_sec = options.timeout_ms / 1000;
    tv.tv_usec = (options.timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  return fd;
}

}  // namespace

std::unique_ptr<Client> Client::connect(const Options& options,
                                        std::string* error) {
  auto client = std::unique_ptr<Client>(new Client(options));
  if (!client->handshake()) {
    if (error != nullptr) *error = client->last_error_;
    return nullptr;
  }
  return client;
}

bool Client::handshake() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  failed_ = false;
  local_fail_ = false;
  std::string dial_error;
  fd_ = dial(options_, &dial_error);
  if (fd_ < 0) return fail(std::move(dial_error), ErrCode::kInternal, true);
  parser_ = WireParser();

  Hello hello;
  hello.token = options_.token;
  hello.record = options_.record;
  hello.intent = options_.intent;
  hello.level = options_.level;
  hello.resumable = options_.resumable;
  Message msg;
  if (!send_all(encode_hello(hello)) || !read_message(&msg) ||
      is_error(msg))
    return false;
  if (!decode_welcome(msg, welcome_)) return fail("malformed WELCOME");
  return true;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::send_all(std::span<const std::uint8_t> bytes) {
  if (failed_ || fd_ < 0) return false;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR)) continue;
      return fail(std::string("send: ") + std::strerror(errno),
                  ErrCode::kInternal, true);
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Client::send_raw(std::span<const std::uint8_t> bytes) {
  return send_all(bytes);
}

bool Client::read_message(Message* out) {
  if (failed_ || fd_ < 0) return false;
  while (true) {
    const WireParser::Status status = parser_.next(out);
    if (status == WireParser::Status::kMessage) return true;
    if (status == WireParser::Status::kMalformed)
      return fail("protocol error: " + parser_.error());
    if (options_.timeout_ms > 0) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(options_.timeout_ms));
      if (ready == 0)
        return fail("recv: timed out", ErrCode::kInternal, true);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return fail(std::string("poll: ") + std::strerror(errno),
                    ErrCode::kInternal, true);
      }
    }
    std::uint8_t buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n == 0)
      return fail("server closed the connection", ErrCode::kInternal, true);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail(std::string("recv: ") + std::strerror(errno),
                  ErrCode::kInternal, true);
    }
    parser_.feed({buf, static_cast<std::size_t>(n)});
  }
}

bool Client::is_error(const Message& msg) {
  if (msg.type != MsgType::kError) return false;
  ErrCode code = ErrCode::kInternal;
  std::string text;
  if (!decode_error(msg, code, text)) {
    (void)fail("undecodable server ERROR");
    return true;
  }
  (void)fail("server: " + text, code);
  return true;
}

bool Client::fail(std::string why, ErrCode code, bool local) {
  failed_ = true;
  local_fail_ = local;
  last_error_ = std::move(why);
  last_code_ = code;
  return false;
}

bool Client::retryable() const noexcept {
  if (!failed_) return false;
  // Local I/O failures (refused, reset, EOF, deadline) are transient by
  // assumption; of the server's verdicts only the drain GOAWAY invites a
  // retry. Everything else — bad token, quota, protocol violation — would
  // just fail again.
  return local_fail_ || last_code_ == ErrCode::kBusy;
}

void Client::backoff_sleep(std::uint32_t attempt) {
  constexpr double kInitialBackoffMs = 10.0;
  constexpr double kMaxBackoffMs = 1000.0;
  constexpr double kJitterFraction = 0.25;
  double ms = std::min(kInitialBackoffMs * std::pow(2.0, attempt),
                       kMaxBackoffMs);
  ms *= 1.0 + kJitterFraction * (2.0 * jitter_.uniform() - 1.0);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

bool Client::recover() {
  static obs::Counter& reconnects_total =
      obs::counter("net.client.retry.reconnects");
  static obs::Counter& resumes_total =
      obs::counter("net.client.retry.resumes");
  static obs::Counter& resent_batches_total =
      obs::counter("net.client.retry.resent_batches");
  static obs::Counter& resent_bytes_total =
      obs::counter("net.client.retry.resent_bytes");
  if (!options_.resumable || options_.intent != Intent::kIngest)
    return false;
  if (options_.max_reconnects == 0 || !retryable()) return false;
  const std::string first_error = last_error_;
  for (std::uint32_t attempt = 0; attempt < options_.max_reconnects;
       ++attempt) {
    backoff_sleep(attempt);
    if (!handshake()) {
      if (seal_sent_ && last_code_ == ErrCode::kBadRecord) {
        // The server sealed the record and then died before (or while)
        // replying: a fresh HELLO now collides with a finished container.
        // That IS success — everything we sent is durable and sealed.
        failed_ = false;
        local_fail_ = false;
        sealed_remote_ = true;
        pending_.clear();
        reconnects_total.add(1);
        ++reconnects_;
        return true;
      }
      if (retryable()) continue;
      return false;
    }
    // RESUMED tells us the durable high-water mark; drop what the server
    // already holds and re-send the remainder in order.
    if (!send_all(encode_simple(MsgType::kResume))) continue;
    Message msg;
    if (!read_message(&msg)) continue;
    if (is_error(msg)) {
      if (retryable()) continue;
      return false;
    }
    Resumed resumed;
    if (msg.type != MsgType::kResumed || !decode_resumed(msg, resumed))
      return fail("expected RESUMED");
    resumes_total.add(1);
    while (!pending_.empty() && pending_.front().seq <= resumed.last_seq)
      pending_.pop_front();
    frames_acked_ = resumed.frames_ingested;
    bytes_acked_ = resumed.bytes_ingested;
    bool resent_ok = true;
    for (const PendingBatch& batch : pending_) {
      if (!send_all(batch.bytes)) {
        resent_ok = false;
        break;
      }
      resent_batches_total.add(1);
      resent_bytes_total.add(batch.bytes.size());
      ++batches_resent_;
    }
    if (!resent_ok) continue;
    if (seal_sent_ && !send_all(encode_simple(MsgType::kSeal))) continue;
    reconnects_total.add(1);
    ++reconnects_;
    return true;
  }
  (void)fail("reconnect attempts exhausted (first failure: " + first_error +
                 ")",
             ErrCode::kInternal, true);
  return false;
}

void Client::note_ack(const PutAck& ack) {
  const std::uint64_t now = steady_ns();
  // Acks arrive in sequence order; one ack retires every batch at or
  // below it (a resume can collapse several into one RESUMED).
  while (!pending_.empty() && pending_.front().seq <= ack.seq) {
    if (pending_.front().seq == ack.seq)
      latency_ns_.push_back(now - pending_.front().sent_ns);
    pending_.pop_front();
  }
  frames_acked_ = ack.frames_ingested;
  bytes_acked_ = ack.bytes_ingested;
}

bool Client::resume(Resumed* out, bool skip_acked) {
  if (failed_) return false;
  if (!send_all(encode_simple(MsgType::kResume))) return false;
  Message msg;
  if (!read_message(&msg)) return false;
  if (is_error(msg)) return false;
  Resumed resumed;
  if (msg.type != MsgType::kResumed || !decode_resumed(msg, resumed))
    return fail("expected RESUMED");
  frames_acked_ = resumed.frames_ingested;
  bytes_acked_ = resumed.bytes_ingested;
  if (skip_acked) next_seq_ = resumed.last_seq;
  if (out != nullptr) *out = resumed;
  return true;
}

bool Client::put(std::vector<WireFrame> frames) {
  if (failed_ && !recover()) return false;
  // Drain acks until the window has room — this is where server
  // backpressure (suspended reads → full send buffer → blocked acks)
  // becomes client-visible blocking.
  Message msg;
  while (pending_.size() >= kMaxInflight) {
    if (!read_message(&msg)) {
      if (recover()) continue;
      return false;
    }
    if (is_error(msg)) {
      if (recover()) continue;
      return false;
    }
    PutAck ack;
    if (msg.type != MsgType::kPutAck || !decode_put_ack(msg, ack))
      return fail("expected PUT_ACK");
    note_ack(ack);
  }
  FrameBatch batch;
  batch.seq = ++next_seq_;
  batch.frames = std::move(frames);
  PendingBatch entry;
  entry.seq = batch.seq;
  entry.bytes = encode_put_frames(batch, welcome_.level);
  entry.sent_ns = steady_ns();
  pending_.push_back(std::move(entry));
  if (send_all(pending_.back().bytes)) return true;
  // recover() re-sends the whole surviving buffer, this batch included.
  return recover();
}

bool Client::seal(Sealed* out) {
  if (failed_ && !recover()) return false;
  if (!sealed_remote_) {
    seal_sent_ = true;
    if (!send_all(encode_simple(MsgType::kSeal)) && !recover()) return false;
  }
  Message msg;
  while (true) {
    if (sealed_remote_) {
      // Sealed in a previous server life; the SEALED stats died with it.
      if (out != nullptr) *out = Sealed{};
      return true;
    }
    if (!read_message(&msg)) {
      if (recover()) continue;
      return false;
    }
    if (is_error(msg)) {
      if (recover()) continue;
      return false;
    }
    if (msg.type == MsgType::kPutAck) {
      PutAck ack;
      if (!decode_put_ack(msg, ack)) return fail("malformed PUT_ACK");
      note_ack(ack);
      continue;
    }
    if (msg.type == MsgType::kSealed) {
      Sealed sealed;
      if (!decode_sealed(msg, sealed)) return fail("malformed SEALED");
      if (out != nullptr) *out = sealed;
      return true;
    }
    return fail("unexpected message while sealing");
  }
}

bool Client::replay_window(std::uint64_t epoch_lo, std::uint64_t epoch_hi,
                           std::vector<WindowStream>* streams,
                           WindowDone* done) {
  if (failed_) return false;
  ReplayWindowReq req;
  req.epoch_lo = epoch_lo;
  req.epoch_hi = epoch_hi;
  if (!send_all(encode_replay_window(req))) return false;
  Message msg;
  while (true) {
    if (!read_message(&msg)) return false;
    if (is_error(msg)) return false;
    if (msg.type == MsgType::kWindowStream) {
      WindowStream ws;
      if (!decode_window_stream(msg, ws))
        return fail("malformed WINDOW_STREAM");
      if (streams != nullptr) streams->push_back(std::move(ws));
      continue;
    }
    if (msg.type == MsgType::kWindowDone) {
      WindowDone wd;
      if (!decode_window_done(msg, wd)) return fail("malformed WINDOW_DONE");
      if (done != nullptr) *done = wd;
      return true;
    }
    return fail("unexpected message in replay");
  }
}

bool Client::inspect(InspectKind kind, std::string* json) {
  if (failed_) return false;
  if (!send_all(encode_inspect(kind))) return false;
  Message msg;
  if (!read_message(&msg)) return false;
  if (is_error(msg)) return false;
  if (msg.type != MsgType::kReport) return fail("expected REPORT");
  if (json != nullptr)
    json->assign(msg.body.begin(), msg.body.end());
  return true;
}

void Client::bye() {
  if (fd_ < 0) return;
  if (!failed_) (void)send_all(encode_simple(MsgType::kBye));
  ::close(fd_);
  fd_ = -1;
}

// --- NetFrameSink --------------------------------------------------------

NetFrameSink::NetFrameSink(Client* client) : client_(client) {
  const Limits& limits = client->welcome().limits;
  max_frames_ = static_cast<std::size_t>(
      std::min<std::uint64_t>(kSinkBatchFrames, limits.max_batch_frames));
  // The body opens with the frame count; the rest is the budget for
  // frame entries.
  const std::uint64_t count_bytes = support::varint_size(max_frames_);
  max_body_ = static_cast<std::size_t>(
      limits.max_message_body > count_bytes
          ? limits.max_message_body - count_bytes
          : 0);
}

void NetFrameSink::submit(const runtime::StreamKey& key, tool::FrameJob job) {
  if (!ok_) return;
  WireFrame frame{key, std::move(job)};
  const std::size_t bytes = put_frames_entry_bytes(frame);
  // A frame that would take the body past the server's limit opens the
  // next batch.
  if (!pending_.empty() && body_bytes_ + bytes > max_body_ && !flush())
    return;
  payload_bytes_ += frame.job.payload.size();
  body_bytes_ += bytes;
  pending_.push_back(std::move(frame));
  if (pending_.size() >= max_frames_ ||
      payload_bytes_ >= kSinkBatchPayloadBytes)
    ok_ = flush();
}

bool NetFrameSink::flush() {
  if (!ok_) return false;
  if (pending_.empty()) return true;
  std::vector<WireFrame> batch;
  batch.swap(pending_);
  payload_bytes_ = 0;
  body_bytes_ = 0;
  ok_ = client_->put(std::move(batch));
  return ok_;
}

bool put_container(const Client::Options& options, const std::string& path,
                   Sealed* sealed, std::string* error) {
  const auto reader = store::ContainerReader::open(path, error);
  if (reader == nullptr) return false;
  // scan_good_frames() skips damaged frames silently; a copy must not.
  if (const store::VerifyReport report = reader->verify(); !report.ok) {
    *error = path + ": " + report.summary();
    return false;
  }
  const auto client = Client::connect(options, error);
  if (client == nullptr) return false;
  NetFrameSink sink(client.get());
  for (const auto& good : reader->scan_good_frames()) {
    support::ByteReader in(good.payload);
    std::optional<tool::Frame> frame = tool::read_frame(in);
    if (!frame.has_value() || !in.exhausted()) {
      *error = path + ": undecodable tool frame";
      return false;
    }
    tool::FrameJob job;
    job.codec = frame->codec;
    job.meta = frame->meta;
    // The recorder's rule: only the raw baseline is framed uncompressed.
    job.compress = frame->codec != static_cast<std::uint8_t>(
                                       tool::RecordCodec::kBaselineRaw);
    job.payload = std::move(frame->payload);
    const store::StreamEpochIndex* epochs = reader->find_epochs(good.key);
    if (epochs != nullptr && good.seq < epochs->epochs.size())
      job.epoch = runtime::EpochMeta{epochs->epochs[good.seq].matched,
                                     epochs->epochs[good.seq].unmatched};
    sink.submit(good.key, std::move(job));
  }
  if (!sink.flush() || !client->seal(sealed)) {
    *error = client->last_error();
    return false;
  }
  client->bye();
  return true;
}

}  // namespace cdc::net
