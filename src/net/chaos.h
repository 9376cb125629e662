// Daemon kill-sweep chaos harness (DESIGN.md §14).
//
// The crash-safety claim is end-to-end: SIGKILL the *daemon process* at a
// precise protocol state, restart it, let resuming clients finish, and the
// sealed records must be byte-identical to an uninterrupted upload. That
// cannot be tested in-process — SIGKILL takes the test down too — so this
// harness forks cdc_served as a child, parses its `LISTENING <port>`
// handshake, and supervises the kill/restart cycle from outside.
//
//   DaemonHarness — fork/exec one cdc_served, with stdout piped for the
//                   port handshake; waitpid-based exit detection, SIGKILL
//                   and SIGTERM controls, restart on the same port.
//   run_chaos()   — the sweep: for each kill point (mid-batch flush,
//                   between journal fsync and PUT_ACK, before the seal
//                   footer, after the footer but before the SEALED reply,
//                   and SIGTERM-under-load), run N resuming clients
//                   against a crash-armed daemon, restart after the
//                   configured death, and oracle-verify every sealed
//                   record byte-for-byte against a local rebuild from the
//                   client seed (net::write_synth_container).
//
// The same harness drives the recovery bench (bench/fig24_recovery) and
// the nightly chaos CI job.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "compress/deflate.h"
#include "net/load_gen.h"

namespace cdc::net {

struct DaemonOptions {
  std::string binary;              ///< path to the cdc_served executable
  std::vector<std::string> args;   ///< argv[1..] verbatim
};

/// One out-of-process cdc_served under supervision. Movable-nothing: the
/// harness object owns the child for its lifetime and SIGKILLs + reaps any
/// survivor on destruction.
class DaemonHarness {
 public:
  DaemonHarness() = default;
  ~DaemonHarness();
  DaemonHarness(const DaemonHarness&) = delete;
  DaemonHarness& operator=(const DaemonHarness&) = delete;

  /// Forks and execs; blocks until the child prints `LISTENING <port>` (or
  /// the deadline). False with *error set on spawn/handshake failure.
  [[nodiscard]] bool start(const DaemonOptions& options, std::string* error);

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// Non-blocking liveness probe (waitpid WNOHANG).
  [[nodiscard]] bool running();

  /// Blocks up to `timeout_ms` for the child to exit on its own (the
  /// crash-flag SIGKILL, or a completed drain). True when it exited;
  /// *status receives the raw waitpid status.
  [[nodiscard]] bool wait_exit(std::uint32_t timeout_ms,
                               int* status = nullptr);

  /// SIGKILL + reap. Idempotent.
  void kill_now();

  /// SIGTERM, then wait up to `timeout_ms`. True when the child exited in
  /// time; *exit_code receives WEXITSTATUS (-1 when killed by signal).
  [[nodiscard]] bool terminate(std::uint32_t timeout_ms, int* exit_code);

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;  ///< read end of the child's stdout pipe
  std::uint16_t port_ = 0;
  bool exited_ = false;
  int status_ = 0;
};

struct ChaosConfig {
  std::string binary;    ///< cdc_served path
  std::string root_dir;  ///< scratch root; each kill point gets a subdir
  std::string tenant = "chaos";
  std::string token = "sesame";
  std::size_t clients = 3;
  SynthShape shape;  ///< per-client upload shape (defaults are sensible)
  std::uint64_t seed = 42;
  compress::DeflateLevel level = compress::DeflateLevel::kDefault;
  /// Crash trigger for the batch-counted kill points (server-global Nth).
  std::uint32_t crash_batch = 7;
};

struct ChaosPointResult {
  std::string name;
  bool passed = false;
  std::size_t sealed = 0;           ///< clients that finished with SEALED
  std::size_t verified = 0;         ///< byte-identical records
  std::uint64_t reconnects = 0;     ///< summed over clients
  std::uint64_t batches_resent = 0; ///< summed over clients
  double restart_ms = 0.0;   ///< daemon death → replacement LISTENING
  double wall_ms = 0.0;      ///< whole point, kill and recovery included
  std::vector<std::string> errors;
};

struct ChaosReport {
  std::vector<ChaosPointResult> points;
  [[nodiscard]] bool ok() const noexcept {
    for (const ChaosPointResult& p : points)
      if (!p.passed) return false;
    return !points.empty();
  }
};

/// Runs the full kill sweep. Blocking; spawns one daemon (twice) and
/// `clients` threads per kill point.
[[nodiscard]] ChaosReport run_chaos(const ChaosConfig& config);

}  // namespace cdc::net
