// cdc_served — the multi-tenant record/replay service daemon.
//
// Serves the DESIGN.md §13 wire protocol over TCP: authenticated tenants
// stream record frames in (PUT_FRAMES → sealed containers under the
// storage root) and read windows back out (REPLAY_WINDOW / INSPECT).
//
// Usage:
//   cdc_served --root DIR --tenant NAME:TOKEN[:MAX_MB[:MAX_RECORDS]] ...
//              [--host H] [--port P] [--queue-batches N]
//              [--max-level LEVEL] [--ingest-delay-us N] [--duration-s N]
//              [--drain-timeout-ms N]
//              [--crash-sync-batch N] [--crash-ack-batch N]
//              [--crash-before-seal] [--crash-after-seal]
//
// Numeric flags take a whole unsigned decimal: --port at most 65535,
// --queue-batches at least 1, the rest at most 2^32 - 1. So do the
// --tenant fields: MAX_MB at most 2^44 - 1 (its byte count fits in 64
// bits), MAX_RECORDS at most 2^32 - 1. Anything else (a sign, trailing
// text, out of range) exits 2 with the usage text.
//
// With --port 0 (the default) an ephemeral port is chosen and printed as
// `LISTENING <port>` on stdout — the handshake the tests and the load
// bench use to find the server. Runs until SIGINT/SIGTERM, or for
// --duration-s seconds when given. Shutdown is graceful: stop accepting,
// GOAWAY idle connections, finish journaling in-flight batches, park
// resumable sessions, exit 0 — all within --drain-timeout-ms.
//
// The --crash-* flags arm the DESIGN.md §14 chaos hooks: the daemon
// SIGKILLs itself at a precise protocol state so the kill-sweep harness
// can verify that a restarted daemon + resuming clients reproduce a
// byte-identical record.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>

#include "compress/deflate.h"
#include "net/server.h"
#include "parse_number.h"

namespace {

std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --root DIR --tenant NAME:TOKEN[:MAX_MB[:MAX_RECORDS]]...\n"
      "          [--host H] [--port P] [--queue-batches N]\n"
      "          [--max-level LEVEL] [--ingest-delay-us N] [--duration-s N]\n"
      "          [--drain-timeout-ms N] [--crash-sync-batch N]\n"
      "          [--crash-ack-batch N] [--crash-before-seal]\n"
      "          [--crash-after-seal]\n",
      argv0);
}

bool parse_tenant(const std::string& spec, cdc::net::TenantConfig& out) {
  const std::size_t c1 = spec.find(':');
  if (c1 == std::string::npos || c1 == 0) return false;
  out.name = spec.substr(0, c1);
  const std::size_t c2 = spec.find(':', c1 + 1);
  out.token = spec.substr(c1 + 1, c2 == std::string::npos
                                      ? std::string::npos
                                      : c2 - c1 - 1);
  if (out.token.empty()) return false;
  if (c2 != std::string::npos) {
    unsigned long long n = 0;
    const std::size_t c3 = spec.find(':', c2 + 1);
    const std::string mb = spec.substr(
        c2 + 1, c3 == std::string::npos ? std::string::npos : c3 - c2 - 1);
    if (!cdc::cli::parse_number(mb.c_str(), 0, (1ull << 44) - 1, &n))
      return false;
    out.max_bytes = static_cast<std::uint64_t>(n) << 20;
    if (c3 != std::string::npos) {
      if (!cdc::cli::parse_number(spec.c_str() + c3 + 1, 0, 0xFFFFFFFFull, &n))
        return false;
      out.max_records = static_cast<std::uint32_t>(n);
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr unsigned long long kMaxU32 = 0xFFFFFFFFull;
  cdc::net::ServerConfig config;
  long duration_s = -1;
  std::uint32_t drain_timeout_ms = 5000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Reads this flag's value as a number in [lo, hi]; on failure names
    // the flag and prints the usage text (the caller exits 2).
    unsigned long long n = 0;
    const auto number = [&](unsigned long long lo, unsigned long long hi) {
      const char* v = next();
      if (cdc::cli::parse_number(v, lo, hi, &n)) return true;
      std::fprintf(stderr, "cdc_served: bad %s value '%s'\n", arg.c_str(),
                   v == nullptr ? "" : v);
      usage(argv[0]);
      return false;
    };
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) { usage(argv[0]); return 2; }
      config.root_dir = v;
    } else if (arg == "--tenant") {
      const char* v = next();
      cdc::net::TenantConfig tenant;
      if (v == nullptr || !parse_tenant(v, tenant)) {
        std::fprintf(stderr, "cdc_served: bad --tenant value '%s'\n",
                     v == nullptr ? "" : v);
        usage(argv[0]);
        return 2;
      }
      config.tenants.push_back(std::move(tenant));
    } else if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) { usage(argv[0]); return 2; }
      config.host = v;
    } else if (arg == "--port") {
      if (!number(0, 65535)) return 2;
      config.port = static_cast<std::uint16_t>(n);
    } else if (arg == "--queue-batches") {
      if (!number(1, kMaxU32)) return 2;
      config.ingest_queue_batches = static_cast<std::size_t>(n);
    } else if (arg == "--max-level") {
      const char* v = next();
      const auto level =
          v == nullptr ? std::nullopt : cdc::compress::deflate_level_from_name(v);
      if (!level.has_value()) {
        std::fprintf(stderr, "bad --max-level\n");
        return 2;
      }
      config.max_level = *level;
    } else if (arg == "--ingest-delay-us") {
      if (!number(0, kMaxU32)) return 2;
      config.ingest_delay_us = static_cast<std::uint32_t>(n);
    } else if (arg == "--duration-s") {
      if (!number(0, kMaxU32)) return 2;
      duration_s = static_cast<long>(n);
    } else if (arg == "--drain-timeout-ms") {
      if (!number(0, kMaxU32)) return 2;
      drain_timeout_ms = static_cast<std::uint32_t>(n);
    } else if (arg == "--crash-sync-batch") {
      if (!number(0, kMaxU32)) return 2;
      config.crash.kill_before_sync_batch = static_cast<std::uint32_t>(n);
    } else if (arg == "--crash-ack-batch") {
      if (!number(0, kMaxU32)) return 2;
      config.crash.kill_before_ack_batch = static_cast<std::uint32_t>(n);
    } else if (arg == "--crash-before-seal") {
      config.crash.kill_before_seal = true;
    } else if (arg == "--crash-after-seal") {
      config.crash.kill_after_seal = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (config.root_dir.empty() || config.tenants.empty()) {
    usage(argv[0]);
    return 2;
  }

  // Install the stop handlers before LISTENING is printed: a supervisor
  // may SIGTERM the instant it parses that line, and a signal landing
  // before the handler exists would kill the process with the default
  // disposition instead of draining.
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  cdc::net::Server server(std::move(config));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "cdc_served: %s\n", error.c_str());
    return 1;
  }
  std::printf("LISTENING %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  const auto started = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (duration_s >= 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(duration_s))
      break;
  }
  // Graceful drain: in-flight batches finish (journaled + acked),
  // resumable sessions are parked for the next daemon life, and the
  // process exits 0 — SIGTERM is a normal way to stop this server.
  const bool drained = server.drain(drain_timeout_ms);
  const cdc::net::Server::Stats stats = server.stats();
  std::printf(
      "cdc_served: %llu conns, %llu sealed, %llu aborted, %llu frames, "
      "%llu bytes, %llu errors, %llu suspensions, %llu resumed, "
      "%llu recovered, %llu parked, %llu deduped, drained=%s\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.sessions_sealed),
      static_cast<unsigned long long>(stats.sessions_aborted),
      static_cast<unsigned long long>(stats.frames_ingested),
      static_cast<unsigned long long>(stats.bytes_ingested),
      static_cast<unsigned long long>(stats.errors_sent),
      static_cast<unsigned long long>(stats.backpressure_suspensions),
      static_cast<unsigned long long>(stats.sessions_resumed),
      static_cast<unsigned long long>(stats.sessions_recovered),
      static_cast<unsigned long long>(stats.sessions_parked),
      static_cast<unsigned long long>(stats.batches_deduped),
      drained ? "clean" : "deadline");
  return 0;
}
