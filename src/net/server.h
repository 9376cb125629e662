// The multi-tenant record/replay service: `cdc_served`'s engine.
//
// One poll(2)-driven event thread owns every socket: it accepts
// connections, feeds raw bytes through per-connection WireParsers, and
// dispatches messages against a per-connection state machine
// (HELLO → ingest | replay). Ingest work never runs on the event thread:
// each ingest session owns a bounded MPMC queue and one worker thread that
// encodes each batch's frames inline (tool::InlineFrameSink) into the
// existing storage stack — QuotaStore → ContainerStore. An I/O error on
// append or sync fails the batch before its ack.
//
// Backpressure is structural, not advisory: when a session's queue is
// full, the event thread parks the parsed batch, *stops polling the
// connection for reads* (slow-reader suspension), and lets TCP flow
// control push back to the client; nothing in the server buffers
// unboundedly. The `net.backpressure.suspensions` counter observes it.
//
// Tenancy: HELLO authenticates by token against the configured tenant
// table. Each tenant gets a byte budget (enforced per-session by a
// QuotaStore at the store seam) and a record-count cap; records live under
// `<root>/<tenant>/<record>.cdcc` as ordinary sealed containers, so every
// existing tool (record_inspector, replay, corpus ingest) works on them
// unchanged. A disconnect mid-ingest discards the partial record — the
// client's retry re-uploads from scratch — so a record name either refers
// to a sealed, verifiable container or to nothing.
//
// Crash safety (DESIGN.md §14): a client may mark its session
// *resumable* in HELLO. The server then journals per-batch durability in a
// CRC'd sidecar (store/session_journal.h) — container bytes are flushed
// and the journal entry fsync'd BEFORE the PUT_ACK goes out — and a
// disconnect parks the partial instead of discarding it. A reconnecting
// resumable HELLO reopens the container at its durable prefix
// (ContainerStore::resume), answers RESUME with the durable high-water
// mark, and deduplicates re-sent batches by sequence number, so the sealed
// result is byte-identical to an uninterrupted upload. On start() the
// store root is scanned: journaled partials are rebuilt into the resume
// table, un-journaled partials are discarded. drain() is the graceful
// SIGTERM path: stop accepting, GOAWAY idle connections, let in-flight
// batches finish, journal-and-park resumable sessions, all under a
// deadline.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compress/deflate.h"
#include "net/protocol.h"
#include "runtime/storage.h"

namespace cdc::net {

struct TenantConfig {
  std::string name;   ///< directory name under the server root
  std::string token;  ///< bearer token presented in HELLO
  std::uint64_t max_bytes = 256ull << 20;  ///< container bytes across records
  std::uint32_t max_records = 256;         ///< sealed + in-flight records
};

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see Server::port()
  std::string root_dir;    ///< record storage root (created if absent)
  std::vector<TenantConfig> tenants;
  /// Ingest-queue bound, in batches, per session — the backpressure knob.
  std::size_t ingest_queue_batches = 8;
  Limits limits;
  /// Highest DEFLATE level a client may negotiate (requests above it are
  /// clamped, mirroring content-encoding negotiation).
  compress::DeflateLevel max_level = compress::DeflateLevel::kBest;
  /// Test/bench-only throttle: sleep this long per ingested batch on the
  /// session worker, to force queue buildup and exercise backpressure.
  std::uint32_t ingest_delay_us = 0;
  /// Test seam: wraps the sink each ingest session's frame sink (and its
  /// durability sync()) writes through — e.g. a store::IoFaultStore to
  /// exercise the fail-before-ack ordering. The wrapper must delegate to
  /// the passed inner sink; null return means "no wrap".
  std::function<std::unique_ptr<runtime::RecordSink>(runtime::RecordSink*)>
      store_wrapper;
  /// Chaos knobs (cdc_served --crash-*): raise SIGKILL at a precise
  /// protocol state, for the kill-sweep harness. Batch counters are
  /// server-global (Nth batch across all sessions); 0 / false = off.
  struct CrashPlan {
    /// SIGKILL while ingesting the Nth batch: frames appended, container
    /// NOT yet flushed, journal NOT yet written — the mid-batch tear.
    std::uint32_t kill_before_sync_batch = 0;
    /// SIGKILL after the Nth batch is flushed + journaled but before its
    /// PUT_ACK — the client must survive an ack it never saw.
    std::uint32_t kill_before_ack_batch = 0;
    /// SIGKILL on SEAL after the backlog drains, before the footer.
    bool kill_before_seal = false;
    /// SIGKILL after the footer is durable, before the SEALED reply.
    bool kill_after_seal = false;
  };
  CrashPlan crash;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event thread. False (with *error set)
  /// on bind/listen failure.
  [[nodiscard]] bool start(std::string* error = nullptr);

  /// Stops accepting, aborts in-flight sessions (non-resumable partial
  /// records are discarded; resumable ones are parked for a later resume),
  /// closes every connection, and joins all threads. Idempotent.
  void stop();

  /// Graceful shutdown: stops accepting, sends a GOAWAY-style ERROR(kBusy)
  /// to idle connections, lets every enqueued batch finish (journaled and
  /// acked), then closes ingest connections — resumable sessions are
  /// parked with their journals intact, so clients can reconnect and
  /// resume after a restart. Returns true when every connection closed
  /// before `timeout_ms`; false means the deadline forced the exit (the
  /// surviving state is still consistent — journals never over-promise).
  /// Joins all threads either way; call instead of stop().
  [[nodiscard]] bool drain(std::uint32_t timeout_ms);

  /// The bound port (after start()); useful with port = 0.
  [[nodiscard]] std::uint16_t port() const noexcept;

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_sealed = 0;
    std::uint64_t sessions_aborted = 0;
    std::uint64_t frames_ingested = 0;
    std::uint64_t bytes_ingested = 0;  ///< raw payload bytes
    std::uint64_t errors_sent = 0;
    std::uint64_t backpressure_suspensions = 0;
    std::uint64_t sessions_resumed = 0;    ///< reopened via resumable HELLO
    std::uint64_t sessions_recovered = 0;  ///< journaled partials found at start()
    std::uint64_t sessions_parked = 0;     ///< resumable partials kept on close
    std::uint64_t batches_deduped = 0;     ///< re-sent batches dropped by seq
    std::uint64_t partials_discarded = 0;  ///< unresumable leftovers removed
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const ServerConfig& config() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cdc::net
