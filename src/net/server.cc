#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "store/container_store.h"
#include "store/mpmc_queue.h"
#include "store/quota.h"
#include "store/session_journal.h"
#include "tool/degraded.h"
#include "tool/frame_sink.h"
#include "tool/pipeline_inspect.h"

namespace cdc::net {

namespace fs = std::filesystem;

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Record names become file names under the tenant directory, so the
/// grammar is strict: no separators, no dotfiles, no traversal.
bool valid_record_name(const std::string& name) {
  if (name.empty() || name.size() > 128 || name[0] == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

constexpr int kListenBacklog = 128;

/// Cheap sealed-ness probe for the startup scan: a sealed container ends
/// in the 8-byte stream-index footer magic. No full open/parse needed.
bool container_sealed_on_disk(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return false;
  const auto size = static_cast<std::int64_t>(in.tellg());
  if (size < 8) return false;
  in.seekg(size - 8);
  std::uint8_t tail[8] = {};
  in.read(reinterpret_cast<char*>(tail), 8);
  return in.gcount() == 8 &&
         std::memcmp(tail, store::kFooterMagic, sizeof tail) == 0;
}

}  // namespace

struct Server::Impl {
  // --- session-worker → event-thread handoff -----------------------------

  struct Completion {
    enum class Kind { kAck, kSealed, kFailed };
    Kind kind = Kind::kAck;
    PutAck ack;
    Sealed sealed;
    ErrCode code = ErrCode::kInternal;
    std::string text;
  };

  struct WorkItem {
    bool seal = false;
    FrameBatch batch;
  };

  /// One in-flight record upload: the bounded queue, the worker that
  /// drains it into the storage stack, and the stack itself.
  struct IngestSession {
    std::string tenant;
    std::string record;
    std::string path;
    compress::DeflateLevel level = compress::DeflateLevel::kDefault;
    std::uint64_t raw_budget = 0;  ///< tenant bytes left at open

    std::unique_ptr<store::ContainerStore> container;
    store::QuotaStore quota;
    std::unique_ptr<runtime::RecordSink> wrapped;  ///< store_wrapper seam
    runtime::RecordSink* target = nullptr;  ///< what the sink writes
    std::optional<tool::InlineFrameSink> sink;
    store::BoundedMpmcQueue<WorkItem> queue;

    std::mutex done_mutex;
    std::vector<Completion> done;

    std::atomic<bool> failed{false};
    bool sealed = false;        ///< event thread
    bool seal_enqueued = false; ///< event thread
    std::uint64_t outstanding = 0;  ///< event thread: enqueued − completed
    std::uint64_t frames = 0;   ///< worker thread until sealed
    std::uint64_t raw_bytes = 0;

    // Crash-safe resume state. committed_seq is the durable high-water
    // mark: the worker advances it after flush + journal fsync, and the
    // event thread reads it only while the worker is provably idle (a
    // RESUME before any PUT on the connection).
    bool resumable = false;
    std::unique_ptr<store::SessionJournal> journal;  ///< worker after start
    std::atomic<std::uint64_t> committed_seq{0};
    /// Worker sets this after the footer is durable; lets teardown tell a
    /// sealed-but-unreplied session from a genuine partial.
    std::atomic<bool> sealed_on_disk{false};

    obs::Counter* tenant_frames = nullptr;
    obs::Counter* tenant_bytes = nullptr;

    std::thread worker;

    IngestSession(std::string tenant_name, std::string record_name,
                  std::string file_path, std::uint64_t budget,
                  std::uint64_t quota_budget, std::size_t queue_batches,
                  std::unique_ptr<store::ContainerStore> store)
        : tenant(std::move(tenant_name)),
          record(std::move(record_name)),
          path(std::move(file_path)),
          raw_budget(budget),
          container(std::move(store)),
          // Hard backstop at the store seam; the worker's raw-byte check
          // below trips first in normal operation (raw >= stored).
          quota(container.get(), quota_budget),
          queue(queue_batches) {}
  };

  struct ReplaySession {
    std::string path;
    std::unique_ptr<store::ContainerReader> reader;
  };

  struct TenantState {
    TenantConfig config;
    std::set<std::string> active;  ///< records mid-ingest
    std::set<std::string> sealed;
    /// Journaled partials awaiting a resumable HELLO (parked on disconnect
    /// or rebuilt by the startup scan). The journal file is the source of
    /// truth; this set only reserves the names.
    std::set<std::string> resumable;
    std::uint64_t used_raw_bytes = 0;
  };

  struct Conn {
    int fd = -1;
    WireParser parser;
    std::deque<std::vector<std::uint8_t>> tx;
    std::size_t tx_off = 0;
    enum class Phase { kAwaitHello, kIngest, kReplay, kClosed } phase =
        Phase::kAwaitHello;
    TenantState* tenant = nullptr;
    std::shared_ptr<IngestSession> ingest;
    std::unique_ptr<ReplaySession> replay;
    std::optional<WorkItem> parked;  ///< backpressure: read interest off
    bool close_after_flush = false;
    bool puts_seen = false;   ///< RESUME is only legal before the first PUT
    bool goaway_sent = false; ///< drain(): GOAWAY ERROR already queued

    explicit Conn(int f, const Limits& limits) : fd(f), parser(limits) {}
    [[nodiscard]] bool suspended() const noexcept {
      return parked.has_value();
    }
  };

  explicit Impl(ServerConfig cfg) : config(std::move(cfg)) {
    for (const TenantConfig& t : config.tenants) {
      TenantState state;
      state.config = t;
      tenants.emplace(t.token, std::move(state));
    }
  }

  // --- lifecycle ---------------------------------------------------------

  bool start(std::string* error) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) return fail_start(error, "socket");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config.port);
    if (::inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1)
      return fail_start(error, "inet_pton");
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0)
      return fail_start(error, "bind");
    if (::listen(listen_fd, kListenBacklog) != 0)
      return fail_start(error, "listen");
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0)
      bound_port = ntohs(bound.sin_port);
    if (!set_nonblocking(listen_fd)) return fail_start(error, "fcntl");
    if (::pipe(wake_pipe) != 0) return fail_start(error, "pipe");
    set_nonblocking(wake_pipe[0]);
    set_nonblocking(wake_pipe[1]);
    std::error_code ec;
    fs::create_directories(config.root_dir, ec);
    if (ec) return fail_start(error, "root_dir");
    recover_sessions();
    stop_requested.store(false, std::memory_order_relaxed);
    drain_requested.store(false, std::memory_order_relaxed);
    event_thread = std::thread([this] { event_loop(); });
    return true;
  }

  /// Startup scan over the store root: every `<record>.cdcc.cdcj` sidecar
  /// is either a finished seal whose journal outlived it (drop the
  /// journal), a valid resumable partial (reserve the name in the resume
  /// table — the heavy container reopen is deferred to the resuming
  /// HELLO), or garbage (drop both files). Unsealed containers with no
  /// journal are pre-resume leftovers and are discarded, restoring the
  /// "a record name means a sealed container or nothing" invariant for
  /// non-resumable uploads.
  void recover_sessions() {
    static obs::Counter& recovered = obs::counter("net.server.resume.recovered");
    static obs::Counter& discarded = obs::counter("net.server.resume.discarded");
    for (auto& [token, tenant] : tenants) {
      const fs::path dir = fs::path(config.root_dir) / tenant.config.name;
      std::error_code ec;
      if (!fs::is_directory(dir, ec)) continue;
      for (const auto& entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        constexpr const char* kSuffix = ".cdcc";
        constexpr std::size_t kSuffixLen = 5;
        if (name.size() <= kSuffixLen ||
            name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) != 0)
          continue;
        const std::string record = name.substr(0, name.size() - kSuffixLen);
        const std::string path = entry.path().string();
        const std::string journal_path = store::session_journal_path(path);
        if (container_sealed_on_disk(entry.path())) {
          // Crash between seal() and journal removal: the record is whole.
          fs::remove(journal_path, ec);
          continue;
        }
        const std::optional<store::JournalState> state =
            fs::exists(journal_path, ec)
                ? store::read_session_journal(journal_path)
                : std::nullopt;
        if (state.has_value() && state->record == record &&
            state->tenant == tenant.config.name) {
          tenant.resumable.insert(record);
          recovered.add(1);
          stat_sessions_recovered.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // No (valid) journal: an unresumable partial. Discard it with its
        // journal so the name frees up.
        fs::remove(path, ec);
        fs::remove(journal_path, ec);
        discarded.add(1);
        stat_partials_discarded.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  bool fail_start(std::string* error, const char* what) {
    if (error != nullptr)
      *error = std::string(what) + ": " + std::strerror(errno);
    if (listen_fd >= 0) ::close(listen_fd);
    listen_fd = -1;
    return false;
  }

  void stop() {
    if (event_thread.joinable()) {
      stop_requested.store(true, std::memory_order_relaxed);
      wake();
      event_thread.join();
    }
    close_fds();
  }

  bool drain(std::uint32_t timeout_ms) {
    if (!event_thread.joinable()) return true;
    // The deadline is published before the flag: the event thread reads it
    // only after its acquire-load of drain_requested sees the store.
    drain_deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(timeout_ms);
    drain_requested.store(true, std::memory_order_release);
    wake();
    event_thread.join();
    close_fds();
    return drained_clean.load(std::memory_order_relaxed);
  }

  void close_fds() {
    if (listen_fd >= 0) ::close(listen_fd);
    listen_fd = -1;
    if (wake_pipe[0] >= 0) ::close(wake_pipe[0]);
    if (wake_pipe[1] >= 0) ::close(wake_pipe[1]);
    wake_pipe[0] = wake_pipe[1] = -1;
  }

  void wake() const {
    if (wake_pipe[1] >= 0) {
      const std::uint8_t byte = 1;
      [[maybe_unused]] const auto n = ::write(wake_pipe[1], &byte, 1);
    }
  }

  // --- event loop --------------------------------------------------------

  void event_loop() {
    static obs::Counter& bytes_in = obs::counter("net.bytes_in");
    std::vector<pollfd> fds;
    while (!stop_requested.load(std::memory_order_relaxed)) {
      const bool draining = drain_requested.load(std::memory_order_acquire);
      fds.clear();
      // Draining: stop accepting (poll ignores fd −1) and stop reading
      // every connection — in-flight batches finish, nothing new lands.
      fds.push_back({draining ? -1 : listen_fd, POLLIN, 0});
      fds.push_back({wake_pipe[0], POLLIN, 0});
      for (const auto& conn : conns) {
        short events = 0;
        if (!draining && !conn->suspended() && !conn->close_after_flush)
          events |= POLLIN;
        if (!conn->tx.empty()) events |= POLLOUT;
        fds.push_back({conn->fd, events, 0});
      }
      const int ready = ::poll(fds.data(), fds.size(), 100);
      if (ready < 0 && errno != EINTR) break;

      if ((fds[1].revents & POLLIN) != 0) {
        std::uint8_t drain[256];
        while (::read(wake_pipe[0], drain, sizeof drain) > 0) {
        }
      }

      // Worker completions first: acks unblock client windows, and a
      // drained queue is what lets parked batches resume below.
      for (auto& conn : conns) drain_completions(*conn);
      for (auto& conn : conns) retry_parked(*conn);

      if (draining) {
        goaway_pass();
        if (conns.empty()) {
          drained_clean.store(true, std::memory_order_relaxed);
          break;
        }
        if (std::chrono::steady_clock::now() >= drain_deadline) break;
      }

      if ((fds[0].revents & POLLIN) != 0) accept_new();

      // Only the connections that were polled this round: accept_new()
      // may have grown `conns` past the pollfd array, and those fresh
      // sockets have no revents yet (they are polled next round).
      const std::size_t polled = fds.size() - 2;
      for (std::size_t i = 0; i < polled; ++i) {
        Conn& conn = *conns[i];
        const pollfd& pfd = fds[2 + i];
        if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
            (pfd.revents & POLLIN) == 0) {
          conn.close_after_flush = true;
          conn.tx.clear();
          continue;
        }
        if ((pfd.revents & POLLIN) != 0) {
          bool peer_closed = false;
          std::uint8_t buf[65536];
          while (true) {
            const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
            if (n > 0) {
              bytes_in.add(static_cast<std::uint64_t>(n));
              conn.parser.feed({buf, static_cast<std::size_t>(n)});
              if (n < static_cast<ssize_t>(sizeof buf)) break;
              continue;
            }
            if (n == 0) {
              peer_closed = true;
            }
            break;
          }
          dispatch(conn);
          if (peer_closed) {
            conn.close_after_flush = true;
            conn.tx.clear();
          }
        }
        if ((pfd.revents & POLLOUT) != 0) flush_tx(conn);
      }

      reap_closed();
    }

    // Shutdown: abort whatever is still in flight and close everything.
    for (auto& conn : conns) teardown(*conn);
    conns.clear();
  }

  /// One drain-mode sweep: tell every connection that can hear it to go
  /// away. Idle connections get the ERROR immediately; ingest connections
  /// only once their enqueued batches are fully completed (acked/journaled)
  /// — the ERROR then lands *after* the final PUT_ACK in the tx queue, so
  /// a resumable client knows exactly what survived.
  void goaway_pass() {
    for (auto& conn : conns) {
      if (conn->goaway_sent || conn->close_after_flush ||
          conn->phase == Conn::Phase::kClosed)
        continue;
      if (conn->ingest != nullptr &&
          (conn->ingest->outstanding > 0 || conn->parked.has_value()))
        continue;
      conn->goaway_sent = true;
      send_error(*conn, ErrCode::kBusy, "server draining; resume later");
    }
  }

  void accept_new() {
    static obs::Counter& accepted = obs::counter("net.conns.accepted");
    while (true) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      conns.push_back(std::make_unique<Conn>(fd, config.limits));
      accepted.add(1);
      stat_connections_accepted.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // --- per-connection machinery ------------------------------------------

  void send_msg(Conn& conn, std::vector<std::uint8_t> msg) {
    obs::counter("net.msgs_out").add(1);
    conn.tx.push_back(std::move(msg));
    flush_tx(conn);
  }

  void send_error(Conn& conn, ErrCode code, const std::string& text) {
    static obs::Counter& errors = obs::counter("net.errors_sent");
    errors.add(1);
    stat_errors_sent.fetch_add(1, std::memory_order_relaxed);
    send_msg(conn, encode_error(code, text));
    conn.close_after_flush = true;
  }

  void flush_tx(Conn& conn) {
    static obs::Counter& bytes_out = obs::counter("net.bytes_out");
    while (!conn.tx.empty()) {
      const std::vector<std::uint8_t>& front = conn.tx.front();
      const ssize_t n =
          ::send(conn.fd, front.data() + conn.tx_off,
                 front.size() - conn.tx_off, MSG_NOSIGNAL);
      if (n <= 0) return;  // EAGAIN or error; POLLOUT/teardown handles it
      bytes_out.add(static_cast<std::uint64_t>(n));
      conn.tx_off += static_cast<std::size_t>(n);
      if (conn.tx_off == front.size()) {
        conn.tx.pop_front();
        conn.tx_off = 0;
      }
    }
  }

  void dispatch(Conn& conn) {
    static obs::Counter& msgs_in = obs::counter("net.msgs_in");
    while (!conn.suspended() && !conn.close_after_flush) {
      Message msg;
      const WireParser::Status status = conn.parser.next(&msg);
      if (status == WireParser::Status::kNeedMore) return;
      if (status == WireParser::Status::kMalformed) {
        send_error(conn, conn.parser.error_code(), conn.parser.error());
        return;
      }
      msgs_in.add(1);
      handle(conn, msg);
    }
  }

  void handle(Conn& conn, const Message& msg) {
    if (msg.type == MsgType::kBye) {
      conn.close_after_flush = true;
      return;
    }
    switch (conn.phase) {
      case Conn::Phase::kAwaitHello:
        handle_hello(conn, msg);
        return;
      case Conn::Phase::kIngest:
        handle_ingest(conn, msg);
        return;
      case Conn::Phase::kReplay:
        handle_replay(conn, msg);
        return;
      case Conn::Phase::kClosed:
        return;
    }
  }

  void handle_hello(Conn& conn, const Message& msg) {
    // The version gate precedes body decode: the version rides in the
    // frame meta, and another version's HELLO body may legitimately have
    // a shape this server cannot parse — "wrong version" must win over
    // "malformed".
    if (msg.type == MsgType::kHello && msg.meta != kProtocolVersion) {
      send_error(conn, ErrCode::kBadVersion,
                 "unsupported protocol version " +
                     std::to_string(msg.meta));
      return;
    }
    Hello hello;
    if (!decode_hello(msg, hello)) {
      send_error(conn, ErrCode::kBadMessage, "expected HELLO");
      return;
    }
    const auto it = tenants.find(hello.token);
    if (it == tenants.end()) {
      send_error(conn, ErrCode::kBadToken, "unknown token");
      return;
    }
    TenantState& tenant = it->second;
    if (!valid_record_name(hello.record)) {
      send_error(conn, ErrCode::kBadRecord, "invalid record name");
      return;
    }
    const fs::path dir = fs::path(config.root_dir) / tenant.config.name;
    const std::string path = (dir / (hello.record + ".cdcc")).string();

    Welcome welcome;
    welcome.level = std::min(hello.level, config.max_level);
    welcome.session_id = ++next_session_id;
    welcome.limits = config.limits;

    if (hello.intent == Intent::kIngest) {
      if (hello.resumable && tenant.resumable.count(hello.record) != 0) {
        // Reopen the journaled partial at its durable prefix. The name
        // moves resumable → active; record/byte quota was already charged
        // against this upload when it first opened.
        conn.ingest =
            open_resumed_ingest(tenant, hello.record, path, &welcome.level);
        if (conn.ingest == nullptr) {
          // The journal or container failed validation: the durable state
          // is unrecoverable, so free the name rather than wedge it. The
          // client cannot transparently re-send (its acked prefix is
          // gone); it must hear the truth and start over.
          tenant.resumable.erase(hello.record);
          std::error_code ec;
          fs::remove(path, ec);
          fs::remove(store::session_journal_path(path), ec);
          stat_partials_discarded.fetch_add(1, std::memory_order_relaxed);
          obs::counter("net.server.resume.discarded").add(1);
          send_error(conn, ErrCode::kInternal,
                     "record '" + hello.record + "' cannot be resumed");
          return;
        }
        tenant.resumable.erase(hello.record);
        tenant.active.insert(hello.record);
        conn.tenant = &tenant;
        conn.phase = Conn::Phase::kIngest;
        obs::counter("net.sessions.opened").add(1);
        obs::counter("net.server.resume.sessions").add(1);
        stat_sessions_opened.fetch_add(1, std::memory_order_relaxed);
        stat_sessions_resumed.fetch_add(1, std::memory_order_relaxed);
        send_msg(conn, encode_welcome(welcome));
        return;
      }
      if (tenant.active.size() + tenant.sealed.size() +
              tenant.resumable.size() >=
          tenant.config.max_records) {
        send_error(conn, ErrCode::kQuota, "record quota exhausted");
        return;
      }
      if (tenant.used_raw_bytes >= tenant.config.max_bytes) {
        send_error(conn, ErrCode::kQuota, "byte quota exhausted");
        return;
      }
      if (tenant.active.count(hello.record) != 0 ||
          tenant.sealed.count(hello.record) != 0 || fs::exists(path)) {
        send_error(conn, ErrCode::kBadRecord,
                   "record '" + hello.record + "' already exists");
        return;
      }
      std::error_code ec;
      fs::create_directories(dir, ec);
      if (ec) {
        send_error(conn, ErrCode::kInternal, "cannot create tenant dir");
        return;
      }
      conn.tenant = &tenant;
      conn.ingest = open_ingest(tenant, hello.record, path, welcome.level,
                                hello.resumable);
      if (conn.ingest == nullptr) {
        send_error(conn, ErrCode::kInternal, "cannot open record");
        return;
      }
      tenant.active.insert(hello.record);
      conn.phase = Conn::Phase::kIngest;
      obs::counter("net.sessions.opened").add(1);
      stat_sessions_opened.fetch_add(1, std::memory_order_relaxed);
      send_msg(conn, encode_welcome(welcome));
      return;
    }

    // kReplay: the record must already be a sealed, verifiable container.
    if (tenant.sealed.count(hello.record) == 0 && !fs::exists(path)) {
      send_error(conn, ErrCode::kBadRecord,
                 "record '" + hello.record + "' does not exist");
      return;
    }
    std::string open_error;
    auto reader = store::ContainerReader::open(path, &open_error);
    if (reader == nullptr || !reader->index_ok()) {
      send_error(conn, ErrCode::kBadRecord,
                 "record not readable: " +
                     (reader == nullptr ? open_error
                                        : reader->index_error()));
      return;
    }
    // Full sweep up front so the trusted read paths (read_stream_window
    // aborts on CRC mismatch) can never be reached with damaged bytes.
    if (!reader->verify().ok) {
      send_error(conn, ErrCode::kBadRecord, "record fails verification");
      return;
    }
    conn.tenant = &tenant;
    conn.replay = std::make_unique<ReplaySession>();
    conn.replay->path = path;
    conn.replay->reader = std::move(reader);
    conn.phase = Conn::Phase::kReplay;
    send_msg(conn, encode_welcome(welcome));
  }

  std::shared_ptr<IngestSession> open_ingest(TenantState& tenant,
                                             const std::string& record,
                                             const std::string& path,
                                             compress::DeflateLevel level,
                                             bool resumable) {
    const std::uint64_t budget =
        tenant.config.max_bytes - tenant.used_raw_bytes;
    std::shared_ptr<IngestSession> session;
    try {
      session = std::make_shared<IngestSession>(
          tenant.config.name, record, path, budget,
          budget + (budget >> 2) + 4096, config.ingest_queue_batches,
          std::make_unique<store::ContainerStore>(path));
    } catch (const std::exception&) {
      return nullptr;
    }
    session->level = level;
    if (resumable) {
      session->resumable = true;
      // An empty journal vouches for the container header, so the header
      // must reach the file first: killed between the two, the session
      // would otherwise resume onto a container shorter than its header.
      session->container->sync();
      session->journal = store::SessionJournal::create(
          store::session_journal_path(path), tenant.config.name, record,
          static_cast<std::uint8_t>(level));
      if (session->journal == nullptr) {
        session->container->abandon();
        std::error_code ec;
        fs::remove(path, ec);
        return nullptr;
      }
    }
    attach_sink_and_worker(tenant, *session);
    return session;
  }

  /// Reopens a journaled partial: validates the journal, resumes the
  /// container at the journal's durable prefix (truncating any torn tail),
  /// and restores the session counters to exactly what the last durable
  /// PUT_ACK promised. Nullptr when either sidecar fails validation.
  std::shared_ptr<IngestSession> open_resumed_ingest(
      TenantState& tenant, const std::string& record, const std::string& path,
      compress::DeflateLevel* level_out) {
    const std::optional<store::JournalState> js =
        store::read_session_journal(store::session_journal_path(path));
    if (!js.has_value() || js->record != record ||
        js->tenant != tenant.config.name)
      return nullptr;
    if (js->level > static_cast<std::uint8_t>(compress::DeflateLevel::kBest))
      return nullptr;
    // An empty journal proves only the 8-byte container header; a populated
    // one proves exactly container_bytes.
    const std::uint64_t durable =
        js->entries == 0 ? store::kContainerHeaderSize : js->container_bytes;
    std::string error;
    auto container =
        store::ContainerStore::resume(path, durable, js->metas, &error);
    if (container == nullptr) return nullptr;
    const std::uint64_t budget =
        tenant.config.max_bytes - tenant.used_raw_bytes;
    // The quota backstop budget accounts for the bytes already stored in
    // the resumed prefix (QuotaStore's own meter restarts at zero).
    const std::uint64_t backstop = budget + (budget >> 2) + 4096;
    std::shared_ptr<IngestSession> session;
    try {
      session = std::make_shared<IngestSession>(
          tenant.config.name, record, path, budget,
          backstop > durable ? backstop - durable : 1,
          config.ingest_queue_batches, std::move(container));
    } catch (const std::exception&) {
      return nullptr;
    }
    // The session resumes at the level it was journaled with — byte
    // identity requires every frame of the record to share one encoder
    // setting, whatever the reconnecting HELLO asked for.
    session->level = static_cast<compress::DeflateLevel>(js->level);
    *level_out = session->level;
    session->resumable = true;
    session->committed_seq.store(js->last_seq, std::memory_order_relaxed);
    session->frames = js->frames_total;
    session->raw_bytes = js->raw_bytes_total;
    session->journal =
        store::SessionJournal::open_append(store::session_journal_path(path));
    if (session->journal == nullptr) return nullptr;
    attach_sink_and_worker(tenant, *session);
    return session;
  }

  void attach_sink_and_worker(TenantState& tenant, IngestSession& session) {
    session.target = &session.quota;
    if (config.store_wrapper) {
      session.wrapped = config.store_wrapper(&session.quota);
      if (session.wrapped != nullptr) session.target = session.wrapped.get();
    }
    session.sink.emplace(session.target);
    session.tenant_frames =
        &obs::counter("net.tenant." + tenant.config.name + ".frames");
    session.tenant_bytes =
        &obs::counter("net.tenant." + tenant.config.name + ".raw_bytes");
    IngestSession* raw = &session;
    session.worker = std::thread([this, raw] { ingest_loop(*raw); });
  }

  void handle_ingest(Conn& conn, const Message& msg) {
    IngestSession& session = *conn.ingest;
    if (msg.type == MsgType::kResume) {
      // Only legal before any PUT on this connection: the worker is then
      // provably idle, so the event thread can read the durable totals
      // without racing the journal writes.
      if (conn.puts_seen || session.seal_enqueued) {
        send_error(conn, ErrCode::kBadMessage, "RESUME after PUT_FRAMES");
        return;
      }
      Resumed resumed;
      resumed.last_seq = session.committed_seq.load(std::memory_order_relaxed);
      resumed.frames_ingested = session.frames;
      resumed.bytes_ingested = session.raw_bytes;
      send_msg(conn, encode_resumed(resumed));
      return;
    }
    if (msg.type == MsgType::kPutFrames) {
      if (session.sealed || session.seal_enqueued) {
        send_error(conn, ErrCode::kBadMessage, "PUT_FRAMES after SEAL");
        return;
      }
      WorkItem item;
      ErrCode refusal = ErrCode::kBadMessage;
      if (!decode_put_frames(msg, config.limits, item.batch, &refusal)) {
        send_error(conn, refusal,
                   refusal == ErrCode::kOversized
                       ? "over-limit PUT_FRAMES batch"
                       : "malformed PUT_FRAMES batch");
        return;
      }
      conn.puts_seen = true;
      enqueue(conn, std::move(item));
      return;
    }
    if (msg.type == MsgType::kSeal) {
      if (session.sealed || session.seal_enqueued) {
        send_error(conn, ErrCode::kBadMessage, "duplicate SEAL");
        return;
      }
      session.seal_enqueued = true;
      WorkItem item;
      item.seal = true;
      enqueue(conn, std::move(item));
      return;
    }
    send_error(conn, ErrCode::kBadMessage, "unexpected message in ingest");
  }

  void enqueue(Conn& conn, WorkItem item) {
    static obs::Counter& suspensions =
        obs::counter("net.backpressure.suspensions");
    static obs::Gauge& suspended = obs::gauge("net.backpressure.suspended");
    if (conn.ingest->queue.try_push(std::move(item))) {
      ++conn.ingest->outstanding;
      return;
    }
    // Queue full: park the batch and stop reading this socket until the
    // worker drains — bounded buffering, TCP pushes back to the client.
    conn.parked = std::move(item);
    suspensions.add(1);
    suspended.add(1);
    stat_suspensions.fetch_add(1, std::memory_order_relaxed);
  }

  void retry_parked(Conn& conn) {
    static obs::Gauge& suspended = obs::gauge("net.backpressure.suspended");
    if (!conn.parked.has_value() || conn.ingest == nullptr) return;
    if (!conn.ingest->queue.try_push(std::move(*conn.parked))) return;
    ++conn.ingest->outstanding;
    conn.parked.reset();
    suspended.sub(1);
    // Messages parsed before the suspension may still be buffered; resume
    // dispatching them now that there is queue room again.
    dispatch(conn);
  }

  void handle_replay(Conn& conn, const Message& msg) {
    ReplaySession& session = *conn.replay;
    if (msg.type == MsgType::kReplayWindow) {
      ReplayWindowReq req;
      if (!decode_replay_window(msg, req) || req.epoch_lo >= req.epoch_hi) {
        send_error(conn, ErrCode::kBadMessage,
                   "REPLAY_WINDOW needs LO < HI");
        return;
      }
      obs::counter("net.replay.windows").add(1);
      const auto keys = session.reader->keys();
      bool all_seeked = true;
      std::uint64_t streams = 0;
      for (const runtime::StreamKey& key : keys) {
        store::ContainerReader::WindowRead read =
            session.reader->read_stream_window(key, req.epoch_lo,
                                               req.epoch_hi);
        if (read.bytes.size() + 64 > config.limits.max_message_body) {
          send_error(conn, ErrCode::kOversized,
                     "window exceeds message size limit");
          return;
        }
        WindowStream ws;
        ws.key = key;
        ws.first_epoch = read.first_epoch;
        ws.seeked = read.seeked;
        ws.bytes = std::move(read.bytes);
        all_seeked = all_seeked && ws.seeked;
        ++streams;
        obs::counter("net.replay.window_bytes").add(ws.bytes.size());
        send_msg(conn, encode_window_stream(
                           ws, compress::DeflateLevel::kStored));
      }
      WindowDone done;
      done.streams = streams;
      done.all_seeked = all_seeked;
      send_msg(conn, encode_window_done(done));
      return;
    }
    if (msg.type == MsgType::kInspect) {
      InspectKind kind = InspectKind::kVerify;
      if (!decode_inspect(msg, kind)) {
        send_error(conn, ErrCode::kBadMessage, "malformed INSPECT");
        return;
      }
      send_msg(conn, encode_report(inspect_json(session, kind)));
      return;
    }
    send_error(conn, ErrCode::kBadMessage, "unexpected message in replay");
  }

  static std::string inspect_json(const ReplaySession& session,
                                  InspectKind kind) {
    switch (kind) {
      case InspectKind::kVerify: {
        const store::VerifyReport report = session.reader->verify();
        obs::JsonWriter w;
        w.begin_object();
        w.field("ok", report.ok);
        w.field("frames_checked", report.frames_checked);
        w.field("payload_bytes", report.payload_bytes);
        w.field("bad_frames", report.bad_frames.size());
        w.key("container_errors").begin_array();
        for (const std::string& e : report.container_errors) w.value(e);
        w.end_array();
        w.end_object();
        return std::move(w).take();
      }
      case InspectKind::kPipeline: {
        obs::PipelineReport report;
        std::string error;
        if (!tool::fill_container_section(session.path, report, &error))
          return std::string("{\"error\":\"") + error + "\"}";
        report.reconcile();
        return report.to_json();
      }
      case InspectKind::kGaps:
        return tool::inspect_gaps(session.path).to_json();
    }
    return "{}";
  }

  // --- ingest worker ------------------------------------------------------

  /// Chaos hook: SIGKILL the process when `counter` reaches `target`
  /// (server-global Nth trigger; 0 = disabled). Out-of-process only — the
  /// kill-sweep harness runs cdc_served as a child it can reap.
  static void maybe_crash_at(std::uint32_t target,
                             std::atomic<std::uint32_t>& counter) {
    if (target != 0 &&
        counter.fetch_add(1, std::memory_order_relaxed) + 1 == target)
      ::raise(SIGKILL);
  }

  static void maybe_crash_if(bool flag) {
    if (flag) ::raise(SIGKILL);
  }

  void ingest_loop(IngestSession& session) {
    static obs::Counter& frames_total = obs::counter("net.ingest.frames");
    static obs::Counter& bytes_total = obs::counter("net.ingest.raw_bytes");
    static obs::Counter& batches_total = obs::counter("net.ingest.batches");
    static obs::Counter& deduped = obs::counter("net.server.resume.deduped");
    static obs::Histogram& batch_ns =
        obs::histogram("net.ingest.batch_ns");
    static obs::Histogram& batch_frames =
        obs::histogram("net.ingest.batch_frames");
    WorkItem item;
    while (session.queue.pop(item)) {
      if (session.failed.load(std::memory_order_relaxed)) continue;
      if (item.seal) {
        try {
          maybe_crash_if(config.crash.kill_before_seal);
          session.container->seal();
          // The footer is durable: the journal has served its purpose and
          // must go before SEALED, so a later crash + startup scan sees a
          // finished record, not a resumable partial.
          if (session.journal != nullptr) {
            session.journal.reset();
            std::error_code ec;
            fs::remove(store::session_journal_path(session.path), ec);
          }
          session.sealed_on_disk.store(true, std::memory_order_release);
          maybe_crash_if(config.crash.kill_after_seal);
          Completion done;
          done.kind = Completion::Kind::kSealed;
          std::error_code ec;
          const auto size = fs::file_size(session.path, ec);
          done.sealed.container_bytes = ec ? 0 : size;
          done.sealed.streams = session.container->keys().size();
          done.sealed.frames = session.frames;
          complete(session, std::move(done));
        } catch (const std::exception& e) {
          fail_session(session, ErrCode::kInternal, e.what());
        }
        continue;
      }
      const obs::Stopwatch sw;
      try {
        // Resume dedup: anything at or below the durable high-water mark
        // was flushed + journaled in a previous life (or a previous send);
        // re-ack with the durable totals and drop the bytes.
        const std::uint64_t committed =
            session.committed_seq.load(std::memory_order_relaxed);
        if (item.batch.seq <= committed) {
          deduped.add(1);
          stat_batches_deduped.fetch_add(1, std::memory_order_relaxed);
          Completion ack;
          ack.kind = Completion::Kind::kAck;
          ack.ack.seq = item.batch.seq;
          ack.ack.frames_ingested = session.frames;
          ack.ack.bytes_ingested = session.raw_bytes;
          complete(session, std::move(ack));
          continue;
        }
        if (item.batch.seq != committed + 1) {
          fail_session(session, ErrCode::kBadMessage,
                       "out-of-order batch sequence");
          continue;
        }
        std::uint64_t batch_bytes = 0;
        for (const WireFrame& frame : item.batch.frames)
          batch_bytes += frame.job.payload.size();
        // Tenant quota on raw payload bytes, checked before any submit so
        // a batch never trips the quota halfway through.
        if (session.raw_bytes + batch_bytes > session.raw_budget) {
          fail_session(session, ErrCode::kQuota,
                       "tenant byte quota exhausted");
          continue;
        }
        // The journal entry describes the batch's container frames in file
        // order, so each frame's epoch flag is taken before its job moves.
        std::vector<std::optional<runtime::EpochMeta>> metas;
        for (WireFrame& frame : item.batch.frames) {
          if (session.journal != nullptr) metas.push_back(frame.job.epoch);
          frame.job.level = session.level;
          session.sink->submit(frame.key, std::move(frame.job));
        }
        // Durability before acknowledgement (DESIGN.md §14): every frame
        // of this batch is already in the container (the sink appends
        // inline), so flush the container, fsync the journal entry, and
        // only then advance committed_seq and emit the PUT_ACK. The crash
        // hooks bracket each ordering edge the kill sweep exercises.
        maybe_crash_at(config.crash.kill_before_sync_batch, crash_sync_count);
        session.target->sync();
        session.frames += item.batch.frames.size();
        session.raw_bytes += batch_bytes;
        if (session.journal != nullptr) {
          if (!session.journal->append_batch(
                  item.batch.seq, metas, session.frames, session.raw_bytes,
                  session.container->writer_file_bytes())) {
            fail_session(session, ErrCode::kInternal,
                         "session journal write failed");
            continue;
          }
        }
        session.committed_seq.store(item.batch.seq,
                                    std::memory_order_release);
        maybe_crash_at(config.crash.kill_before_ack_batch, crash_ack_count);
        frames_total.add(item.batch.frames.size());
        bytes_total.add(batch_bytes);
        batches_total.add(1);
        batch_frames.record(item.batch.frames.size());
        session.tenant_frames->add(item.batch.frames.size());
        session.tenant_bytes->add(batch_bytes);
        stat_frames_ingested.fetch_add(item.batch.frames.size(),
                                       std::memory_order_relaxed);
        stat_bytes_ingested.fetch_add(batch_bytes,
                                      std::memory_order_relaxed);
        if (config.ingest_delay_us > 0)
          std::this_thread::sleep_for(
              std::chrono::microseconds(config.ingest_delay_us));
        Completion ack;
        ack.kind = Completion::Kind::kAck;
        ack.ack.seq = item.batch.seq;
        ack.ack.frames_ingested = session.frames;
        ack.ack.bytes_ingested = session.raw_bytes;
        batch_ns.record(sw.ns());
        complete(session, std::move(ack));
      } catch (const store::QuotaExceeded& e) {
        fail_session(session, ErrCode::kQuota, e.what());
      } catch (const std::exception& e) {
        fail_session(session, ErrCode::kInternal, e.what());
      }
    }
  }

  void fail_session(IngestSession& session, ErrCode code, std::string text) {
    Completion failure;
    failure.kind = Completion::Kind::kFailed;
    failure.code = code;
    failure.text = std::move(text);
    session.failed.store(true, std::memory_order_relaxed);
    complete(session, std::move(failure));
  }

  void complete(IngestSession& session, Completion completion) {
    {
      const std::lock_guard<std::mutex> lock(session.done_mutex);
      session.done.push_back(std::move(completion));
    }
    wake();
  }

  void drain_completions(Conn& conn) {
    if (conn.ingest == nullptr) return;
    std::vector<Completion> done;
    {
      const std::lock_guard<std::mutex> lock(conn.ingest->done_mutex);
      done.swap(conn.ingest->done);
    }
    for (Completion& completion : done) {
      if (conn.ingest->outstanding > 0) --conn.ingest->outstanding;
      switch (completion.kind) {
        case Completion::Kind::kAck:
          send_msg(conn, encode_put_ack(completion.ack));
          break;
        case Completion::Kind::kSealed: {
          conn.ingest->sealed = true;
          TenantState& tenant = *conn.tenant;
          tenant.active.erase(conn.ingest->record);
          tenant.sealed.insert(conn.ingest->record);
          tenant.used_raw_bytes += conn.ingest->raw_bytes;
          obs::counter("net.sessions.sealed").add(1);
          stat_sessions_sealed.fetch_add(1, std::memory_order_relaxed);
          send_msg(conn, encode_sealed(completion.sealed));
          break;
        }
        case Completion::Kind::kFailed:
          send_error(conn, completion.code, completion.text);
          break;
      }
    }
  }

  // --- teardown -----------------------------------------------------------

  void teardown(Conn& conn) {
    static obs::Counter& closed = obs::counter("net.conns.closed");
    static obs::Gauge& suspended = obs::gauge("net.backpressure.suspended");
    if (conn.phase == Conn::Phase::kClosed) return;
    if (conn.parked.has_value()) {
      conn.parked.reset();
      suspended.sub(1);
    }
    if (conn.ingest != nullptr) {
      IngestSession& session = *conn.ingest;
      session.queue.close();
      if (session.worker.joinable()) session.worker.join();
      if (!session.sealed) {
        if (session.sealed_on_disk.load(std::memory_order_acquire)) {
          // The worker sealed but the SEALED reply never drained: the
          // record on disk is whole, so register it — deleting it here
          // would destroy a finished record.
          if (conn.tenant != nullptr) {
            conn.tenant->active.erase(session.record);
            conn.tenant->sealed.insert(session.record);
            conn.tenant->used_raw_bytes += session.raw_bytes;
          }
          obs::counter("net.sessions.sealed").add(1);
          stat_sessions_sealed.fetch_add(1, std::memory_order_relaxed);
        } else if (session.resumable) {
          // Park the partial: journal + container stay on disk, the name
          // moves active → resumable, and a reconnecting HELLO picks the
          // upload back up at the durable prefix.
          session.journal.reset();
          session.container->abandon();
          if (conn.tenant != nullptr) {
            conn.tenant->active.erase(session.record);
            conn.tenant->resumable.insert(session.record);
          }
          obs::counter("net.server.resume.parked").add(1);
          stat_sessions_parked.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Non-resumable partial: discard. The container is abandoned
          // (no footer) and removed, the name freed — a retry re-uploads
          // from scratch.
          session.container->abandon();
          std::error_code ec;
          fs::remove(session.path, ec);
          if (conn.tenant != nullptr)
            conn.tenant->active.erase(session.record);
          obs::counter("net.sessions.aborted").add(1);
          stat_sessions_aborted.fetch_add(1, std::memory_order_relaxed);
        }
      }
      conn.ingest.reset();
    }
    conn.replay.reset();
    ::close(conn.fd);
    conn.phase = Conn::Phase::kClosed;
    closed.add(1);
    stat_connections_closed.fetch_add(1, std::memory_order_relaxed);
  }

  void reap_closed() {
    for (auto& conn : conns) {
      const bool done =
          conn->close_after_flush && conn->tx.empty();
      if (done) teardown(*conn);
    }
    std::erase_if(conns, [](const std::unique_ptr<Conn>& conn) {
      return conn->phase == Conn::Phase::kClosed;
    });
  }

  // --- state --------------------------------------------------------------

  ServerConfig config;
  int listen_fd = -1;
  int wake_pipe[2] = {-1, -1};
  std::uint16_t bound_port = 0;
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> drain_requested{false};
  std::atomic<bool> drained_clean{false};
  std::chrono::steady_clock::time_point drain_deadline;
  std::atomic<std::uint32_t> crash_sync_count{0};
  std::atomic<std::uint32_t> crash_ack_count{0};
  std::thread event_thread;
  std::map<std::string, TenantState> tenants;  ///< token → state
  std::vector<std::unique_ptr<Conn>> conns;
  std::uint64_t next_session_id = 0;

  std::atomic<std::uint64_t> stat_connections_accepted{0};
  std::atomic<std::uint64_t> stat_connections_closed{0};
  std::atomic<std::uint64_t> stat_sessions_opened{0};
  std::atomic<std::uint64_t> stat_sessions_sealed{0};
  std::atomic<std::uint64_t> stat_sessions_aborted{0};
  std::atomic<std::uint64_t> stat_frames_ingested{0};
  std::atomic<std::uint64_t> stat_bytes_ingested{0};
  std::atomic<std::uint64_t> stat_errors_sent{0};
  std::atomic<std::uint64_t> stat_suspensions{0};
  std::atomic<std::uint64_t> stat_sessions_resumed{0};
  std::atomic<std::uint64_t> stat_sessions_recovered{0};
  std::atomic<std::uint64_t> stat_sessions_parked{0};
  std::atomic<std::uint64_t> stat_batches_deduped{0};
  std::atomic<std::uint64_t> stat_partials_discarded{0};
};

Server::Server(ServerConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) { return impl_->start(error); }

void Server::stop() { impl_->stop(); }

bool Server::drain(std::uint32_t timeout_ms) {
  return impl_->drain(timeout_ms);
}

std::uint16_t Server::port() const noexcept { return impl_->bound_port; }

Server::Stats Server::stats() const {
  Server::Stats stats;
  stats.connections_accepted =
      impl_->stat_connections_accepted.load(std::memory_order_relaxed);
  stats.connections_closed =
      impl_->stat_connections_closed.load(std::memory_order_relaxed);
  stats.sessions_opened =
      impl_->stat_sessions_opened.load(std::memory_order_relaxed);
  stats.sessions_sealed =
      impl_->stat_sessions_sealed.load(std::memory_order_relaxed);
  stats.sessions_aborted =
      impl_->stat_sessions_aborted.load(std::memory_order_relaxed);
  stats.frames_ingested =
      impl_->stat_frames_ingested.load(std::memory_order_relaxed);
  stats.bytes_ingested =
      impl_->stat_bytes_ingested.load(std::memory_order_relaxed);
  stats.errors_sent = impl_->stat_errors_sent.load(std::memory_order_relaxed);
  stats.backpressure_suspensions =
      impl_->stat_suspensions.load(std::memory_order_relaxed);
  stats.sessions_resumed =
      impl_->stat_sessions_resumed.load(std::memory_order_relaxed);
  stats.sessions_recovered =
      impl_->stat_sessions_recovered.load(std::memory_order_relaxed);
  stats.sessions_parked =
      impl_->stat_sessions_parked.load(std::memory_order_relaxed);
  stats.batches_deduped =
      impl_->stat_batches_deduped.load(std::memory_order_relaxed);
  stats.partials_discarded =
      impl_->stat_partials_discarded.load(std::memory_order_relaxed);
  return stats;
}

const ServerConfig& Server::config() const noexcept { return impl_->config; }

}  // namespace cdc::net
