// Figure 24 (this repo): crash-recovery cost of the record service — the
// DESIGN.md §14 kill sweep as a measured bench instead of a pass/fail
// test.
//
// For each kill point (mid-batch tear, journaled-but-unacked batch,
// pre-seal, post-seal, SIGTERM-under-load) the chaos harness forks a real
// cdc_served, arms the crash hook, runs CDC_CHAOS_CLIENTS resuming
// uploaders against it, restarts the daemon after the death, and
// byte-verifies every sealed record against a local rebuild from the
// client seed. Reported per point:
//   * restart_ms  — daemon death to the replacement's LISTENING line;
//   * reconnects / resent batches / resent raw bytes — the retry tax the
//     clients paid (raw bytes follow exactly from the deterministic
//     batch shape);
//   * wall_ms     — the whole point including both daemon lives.
//
// Results land in BENCH_recovery.json. The CI gate
// (bench/check_baseline.py) is strict on correctness — every
// point passed, every record sealed and byte-verified, every kill point
// actually exercised the reconnect path — and generous on the timing
// ceilings, which exist to catch pathological recovery stalls, not to
// benchmark CI hardware.
//
// The path to cdc_served is injected by CMake as CDC_SERVED_BIN.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common.h"
#include "net/chaos.h"

int main() {
  using namespace cdc;
  const auto clients = static_cast<std::size_t>(
      bench::env_int("CDC_CHAOS_CLIENTS", 4));
  std::printf("==============================================================\n");
  std::printf("Figure 24 — service crash recovery: %zu resuming clients "
              "per kill point\n", clients);
  std::printf("--------------------------------------------------------------\n");

  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("cdc_fig24." + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  net::ChaosConfig config;
  config.binary = CDC_SERVED_BIN;
  config.root_dir = root.string();
  config.clients = clients;
  config.seed = static_cast<std::uint64_t>(bench::env_int("CDC_SEED", 1));
  config.shape.batches = 8;
  config.shape.frames_per_batch = 8;
  config.shape.payload_bytes = 2048;
  config.shape.streams = 4;
  config.crash_batch = static_cast<std::uint32_t>(clients) * 2;
  config.level = compress::DeflateLevel::kFast;
  // Raw payload bytes per re-sent batch: the synth shape is exact.
  const std::uint64_t batch_raw_bytes =
      static_cast<std::uint64_t>(config.shape.frames_per_batch) *
      config.shape.payload_bytes;

  const net::ChaosReport report = net::run_chaos(config);

  obs::JsonWriter w;
  w.begin_object();
  w.field("bench", "fig24_recovery");
  w.field("clients", static_cast<std::uint64_t>(clients));
  w.field("batches_per_client",
          static_cast<std::uint64_t>(config.shape.batches));
  w.field("batch_raw_bytes", batch_raw_bytes);
  w.key("points").begin_array();
  std::printf("%-20s %6s %6s %10s %10s %12s %10s %10s\n", "kill point",
              "sealed", "verif", "reconnects", "resent", "resent MB",
              "restart ms", "wall ms");
  for (const net::ChaosPointResult& p : report.points) {
    const std::uint64_t resent_bytes = p.batches_resent * batch_raw_bytes;
    std::printf("%-20s %6zu %6zu %10llu %10llu %12.2f %10.1f %10.1f%s\n",
                p.name.c_str(), p.sealed, p.verified,
                static_cast<unsigned long long>(p.reconnects),
                static_cast<unsigned long long>(p.batches_resent),
                static_cast<double>(resent_bytes) / (1 << 20), p.restart_ms,
                p.wall_ms, p.passed ? "" : "  FAILED");
    for (const std::string& e : p.errors)
      std::printf("    error: %s\n", e.c_str());
    w.begin_object();
    w.field("name", p.name.c_str());
    w.field("passed", p.passed);
    w.field("sealed", static_cast<std::uint64_t>(p.sealed));
    w.field("verified", static_cast<std::uint64_t>(p.verified));
    w.field("reconnects", p.reconnects);
    w.field("resent_batches", p.batches_resent);
    w.field("resent_raw_bytes", resent_bytes);
    w.field("restart_ms", p.restart_ms);
    w.field("wall_ms", p.wall_ms);
    w.field("errors", static_cast<std::uint64_t>(p.errors.size()));
    w.end_object();
  }
  w.end_array();
  w.field("all_passed", report.ok());
  w.end_object();
  const bool wrote =
      bench::write_bench_json("BENCH_recovery.json", std::move(w).take());

  std::filesystem::remove_all(root);
  const bool ok = wrote && report.ok();
  std::printf("--------------------------------------------------------------\n");
  std::printf("fig24: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
