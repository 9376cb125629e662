// Figure 23 (this repo): record-service load — many concurrent clients
// against one in-process server, with and without an injected fault mix.
//
// Two phases, both fully seeded:
//   1. clean   — CDC_CLIENTS well-behaved uploaders (default 100) against
//                a deliberately tight ingest queue + per-batch throttle,
//                so TCP backpressure (slow-reader suspension) must engage
//                while every record still seals byte-identical to its
//                local rebuild. Reports throughput and ack percentiles.
//   2. faulted — the same population with the full fault plan mixed in
//                (slow clients, mid-stream disconnects, duplicate
//                uploads, garbage bytes, oversized frames); surviving
//                records are oracle-verified against a rebuild from the
//                seed, vanished records must be absent.
//
// Results land in BENCH_service.json. The CI service job gates the
// correctness fields strictly (zero unexpected failures, zero verify
// failures, backpressure engaged) and the throughput only against a
// generous floor via bench/check_baseline.py — absolute MB/s is
// machine noise; silently dropped frames are not.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common.h"
#include "net/load_gen.h"
#include "net/server.h"

namespace {

using namespace cdc;
using bench::Clock;

// One tenant per phase: record names are per-tenant, so the phases get
// disjoint namespaces (and the per-tenant accounting is exercised).
constexpr const char* kCleanToken = "bench-clean-token";
constexpr const char* kCleanTenant = "bench-clean";
constexpr const char* kFaultToken = "bench-fault-token";
constexpr const char* kFaultTenant = "bench-fault";

net::LoadReport run_phase(const net::Server& server,
                          const std::filesystem::path& root,
                          const char* token, const char* tenant,
                          std::size_t clients, std::uint64_t seed,
                          const net::FaultPlan& faults) {
  net::LoadConfig config;
  config.port = server.port();
  config.token = token;
  config.clients = clients;
  config.seed = seed;
  config.level = compress::DeflateLevel::kFast;
  config.shape.batches = 6;
  config.shape.frames_per_batch = 8;
  config.shape.payload_bytes = 2048;
  config.shape.streams = 4;
  config.faults = faults;
  config.server_root = (root / "root").string();
  config.tenant = tenant;
  config.scratch_dir = (root / "scratch").string();
  return net::run_load(config);
}

void print_report(const char* phase, const net::LoadReport& r) {
  std::printf("%-8s clients %3zu  sealed %3zu  expected-fail %2zu  "
              "unexpected %2zu\n",
              phase, r.clients, r.sealed, r.expected_failures,
              r.unexpected_failures);
  std::printf("         verified %3zu  verify-fail %zu  %.0f frames/s  "
              "%.2f MB/s\n",
              r.verified, r.verify_failures, r.frames_per_s, r.mb_per_s);
  std::printf("         ack p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  "
              "(%llu samples)\n",
              r.ack_p50_ms, r.ack_p95_ms, r.ack_p99_ms,
              static_cast<unsigned long long>(r.latency_samples));
  for (const std::string& e : r.errors)
    std::printf("         error: %s\n", e.c_str());
}

void emit_phase(obs::JsonWriter& w, const net::LoadReport& r) {
  w.begin_object();
  w.field("clients", static_cast<std::uint64_t>(r.clients));
  w.field("sealed", static_cast<std::uint64_t>(r.sealed));
  w.field("expected_failures",
          static_cast<std::uint64_t>(r.expected_failures));
  w.field("unexpected_failures",
          static_cast<std::uint64_t>(r.unexpected_failures));
  w.field("verified", static_cast<std::uint64_t>(r.verified));
  w.field("verify_failures",
          static_cast<std::uint64_t>(r.verify_failures));
  w.field("frames_acked", r.frames_acked);
  w.field("raw_bytes_acked", r.raw_bytes_acked);
  w.field("duration_s", r.duration_s);
  w.field("frames_per_s", r.frames_per_s);
  w.field("mb_per_s", r.mb_per_s);
  w.field("ack_p50_ms", r.ack_p50_ms);
  w.field("ack_p95_ms", r.ack_p95_ms);
  w.field("ack_p99_ms", r.ack_p99_ms);
  w.end_object();
}

}  // namespace

int main() {
  const auto clients = static_cast<std::size_t>(
      bench::env_int("CDC_CLIENTS", 100));
  std::printf("==============================================================\n");
  std::printf("Figure 23 — record-service load: %zu concurrent clients\n",
              clients);
  std::printf("--------------------------------------------------------------\n");

  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("cdc_fig23." + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  net::ServerConfig server_config;
  server_config.root_dir = (root / "root").string();
  for (const auto& [name, token] :
       {std::pair{kCleanTenant, kCleanToken},
        std::pair{kFaultTenant, kFaultToken}}) {
    net::TenantConfig tenant;
    tenant.name = name;
    tenant.token = token;
    tenant.max_bytes = 2ull << 30;
    tenant.max_records = 4096;
    server_config.tenants.push_back(tenant);
  }
  // The backpressure stage: a short queue and a per-batch throttle make
  // the event thread suspend reads instead of buffering.
  server_config.ingest_queue_batches = 2;
  server_config.ingest_delay_us = 200;
  net::Server server(std::move(server_config));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "fig23: cannot start server: %s\n", error.c_str());
    std::filesystem::remove_all(root);
    return 1;
  }

  // Phase 1: clean load. Every client must seal and verify.
  const net::LoadReport clean =
      run_phase(server, root, kCleanToken, kCleanTenant, clients,
                /*seed=*/1001, net::FaultPlan{});
  print_report("clean", clean);
  const net::Server::Stats clean_stats = server.stats();
  std::printf("         backpressure suspensions: %llu\n",
              static_cast<unsigned long long>(
                  clean_stats.backpressure_suspensions));

  // Phase 2: the fault plan. 30% of clients misbehave; the rest must be
  // untouched by their neighbours' abuse.
  net::FaultPlan faults;
  faults.slow_pct = 6;
  faults.disconnect_pct = 6;
  faults.duplicate_pct = 6;
  faults.garbage_pct = 6;
  faults.oversized_pct = 6;
  const net::LoadReport faulted =
      run_phase(server, root, kFaultToken, kFaultTenant, clients,
                /*seed=*/2002, faults);
  print_report("faulted", faulted);
  const net::Server::Stats stats = server.stats();

  obs::JsonWriter w;
  w.begin_object();
  w.field("bench", "fig23_service_load");
  w.field("clients", static_cast<std::uint64_t>(clients));
  w.key("clean");
  emit_phase(w, clean);
  w.key("faulted");
  emit_phase(w, faulted);
  w.key("server").begin_object();
  w.field("connections_accepted", stats.connections_accepted);
  w.field("sessions_sealed", stats.sessions_sealed);
  w.field("sessions_aborted", stats.sessions_aborted);
  w.field("frames_ingested", stats.frames_ingested);
  w.field("bytes_ingested", stats.bytes_ingested);
  w.field("errors_sent", stats.errors_sent);
  w.field("backpressure_suspensions", stats.backpressure_suspensions);
  w.end_object();
  w.end_object();
  const bool wrote =
      bench::write_bench_json("BENCH_service.json", std::move(w).take());

  server.stop();
  std::filesystem::remove_all(root);

  const bool ok = wrote && clean.ok() && faulted.ok() &&
                  clean.sealed == clients &&
                  clean_stats.backpressure_suspensions > 0;
  std::printf("--------------------------------------------------------------\n");
  std::printf("fig23: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
