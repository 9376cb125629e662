// Seeded many-client load generator + fault plan for the record service.
//
// The workload is deterministic end to end: client `i` derives its RNG
// from (seed, i), synth_jobs() derives every frame payload from that RNG,
// and encode_frame() is deterministic — so after the run, the verifier can
// rebuild each surviving record locally from nothing but the seed and
// byte-compare it against the container the server sealed. That turns a
// hundred concurrent clients plus injected faults (slow readers,
// mid-stream disconnects, duplicate uploads, garbage bytes, oversized
// frames) into an *oracle-checked* stress test, not just a survival test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/client.h"

namespace cdc::net {

/// Shape of one synthetic client upload.
struct SynthShape {
  std::size_t batches = 8;
  std::size_t frames_per_batch = 16;
  std::size_t payload_bytes = 2048;  ///< raw bytes per frame
  std::size_t streams = 4;           ///< distinct stream keys cycled over
  bool epochs = true;                ///< attach EpochMeta (epoch index)
};

/// The deterministic frame list client `seed` uploads: generator and
/// verifier call this with the same arguments and get identical frames.
[[nodiscard]] std::vector<WireFrame> synth_jobs(std::uint64_t seed,
                                                const SynthShape& shape,
                                                compress::DeflateLevel level);

/// Writes the container `jobs` produce through a local InlineFrameSink —
/// the oracle side of the byte-identity check.
[[nodiscard]] bool write_synth_container(const std::string& path,
                                         const std::vector<WireFrame>& jobs,
                                         std::string* error = nullptr);

/// The payload seed of client `client` in a run seeded `run_seed` (the
/// load generator and the chaos sweep share it).
[[nodiscard]] std::uint64_t client_seed(std::uint64_t run_seed,
                                        std::size_t client);

/// True when files `a` and `b` hold the same bytes; otherwise *why says
/// how they differ.
[[nodiscard]] bool same_file_bytes(const std::string& a, const std::string& b,
                                   std::string* why);

/// Percentage mix of misbehaving clients (the rest upload normally).
/// Percentages are of the client population; they must sum to <= 100.
struct FaultPlan {
  std::uint32_t slow_pct = 0;        ///< sleeps between batches
  std::uint32_t disconnect_pct = 0;  ///< closes mid-stream, never seals
  std::uint32_t duplicate_pct = 0;   ///< re-uploads its sealed record name
  std::uint32_t garbage_pct = 0;     ///< injects non-protocol bytes
  std::uint32_t oversized_pct = 0;   ///< ships a frame above the limit
};

struct LoadConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string token;
  std::size_t clients = 8;
  SynthShape shape;
  compress::DeflateLevel level = compress::DeflateLevel::kDefault;
  std::uint64_t seed = 1;
  FaultPlan faults;
  /// When non-empty, verify after the run: expected-sealed records are
  /// rebuilt from the seed and byte-compared against
  /// `<server_root>/<tenant>/<record>.cdcc`; expected-absent records must
  /// be absent. Requires filesystem access to the server root (loopback).
  std::string server_root;
  std::string tenant;
  std::string scratch_dir;  ///< where the verifier rebuilds containers
};

struct LoadReport {
  std::size_t clients = 0;
  std::size_t sealed = 0;
  std::size_t expected_failures = 0;    ///< faults that failed as planned
  std::size_t unexpected_failures = 0;  ///< anything else (test failure)
  std::uint64_t frames_acked = 0;
  std::uint64_t raw_bytes_acked = 0;
  double duration_s = 0.0;
  double frames_per_s = 0.0;
  double mb_per_s = 0.0;
  std::uint64_t latency_samples = 0;
  double ack_p50_ms = 0.0;
  double ack_p95_ms = 0.0;
  double ack_p99_ms = 0.0;
  std::size_t verified = 0;         ///< byte-identical records
  std::size_t verify_failures = 0;  ///< mismatched or wrongly-present
  std::vector<std::string> errors;  ///< diagnostics for the failures

  [[nodiscard]] bool ok() const noexcept {
    return unexpected_failures == 0 && verify_failures == 0;
  }
};

/// Runs the plan: one thread per client, all concurrent. Blocks until
/// every client finishes and (when configured) verification completes.
[[nodiscard]] LoadReport run_load(const LoadConfig& config);

}  // namespace cdc::net
