// Figure 25 (this repo's extension): parallel-simulator scaling, plain and
// replayed.
//
// The paper's evaluation needs simulated runs at thousands of MPI
// processes (3,072-rank MCB, 6,114-rank Jacobi), and CDC exists so that
// one recorded run can be replayed many times. This bench measures the
// simulator's conservative time-window engine (DESIGN.md §15) on the
// common MCB workload: scheduler throughput (events/sec) at 1 → 8 worker
// threads for a 3,072-rank run, the same run recorded once and replayed
// at 1 → 8 workers, plus one large 12,288-rank completion run.
//
// Determinism is part of the measurement: every worker count must produce
// the same run, so each plain row carries an order digest (order-sensitive
// global tally bits + the full counter set) and each replay row the
// replayer's receive-order digest, which must equal the recording's. The
// CI gate (bench/check_baseline.py) fails on any cross-worker-
// count difference and on any replay that diverges from the record —
// strictly, regardless of host. Speedup expectations are gated only where
// workers <= host_cores, and only for plain runs: wall-clock scaling on an
// oversubscribed host measures the scheduler, not the engine.
//
// Knobs: CDC_RANKS (default 3,072), CDC_LARGE_RANKS (default 12,288;
// 0 skips the large run), CDC_PARTICLES (per rank, default 2), CDC_SEED.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "apps/mcb.h"
#include "common.h"
#include "minimpi/simulator.h"
#include "obs/json.h"
#include "runtime/storage.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace {

using namespace cdc;

constexpr int kWorkerCounts[] = {1, 2, 4, 8};

std::uint64_t fnv_mix(std::uint64_t digest, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xff;
    digest *= 0x100000001b3ull;
  }
  return digest;
}

std::uint64_t double_bits(double value) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  __builtin_memcpy(&bits, &value, sizeof bits);
  return bits;
}

struct Row {
  int workers = 0;
  double seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  bool fully_replayed = false;  ///< replay rows only

  [[nodiscard]] double events_per_sec() const {
    return static_cast<double>(events) / seconds;
  }
};

/// One measured plain run. The digest folds in everything the engine is
/// required to keep invariant across worker counts: the order-sensitive
/// tally, the virtual end time, and the exact counter set.
Row run_once(int ranks, int workers, const apps::McbConfig& mcb,
             std::uint64_t seed) {
  minimpi::Simulator::Config config = bench::sim_config(ranks, seed);
  config.workers = workers;
  minimpi::Simulator sim(config);
  const auto start = bench::Clock::now();
  const apps::McbResult result = apps::run_mcb(sim, mcb);
  Row row;
  row.workers = workers;
  row.seconds = bench::seconds_since(start, "bench.parallel_sim_ns");
  const auto& stats = sim.stats();
  row.events = stats.scheduler_events;
  std::uint64_t d = 0xcbf29ce484222325ull;
  d = fnv_mix(d, double_bits(result.global_tally));
  d = fnv_mix(d, double_bits(stats.end_time));
  d = fnv_mix(d, stats.scheduler_events);
  d = fnv_mix(d, stats.messages_sent);
  d = fnv_mix(d, stats.receive_events_delivered);
  d = fnv_mix(d, stats.mf_calls);
  d = fnv_mix(d, stats.unmatched_tests);
  d = fnv_mix(d, stats.max_queue_depth);
  row.digest = d;
  return row;
}

/// Records one run into `store`; the digest is the recorder's
/// receive-order digest.
Row record_once(int ranks, const apps::McbConfig& mcb, std::uint64_t seed,
                runtime::RecordStore* store) {
  tool::Recorder recorder(ranks, store);
  minimpi::Simulator sim(bench::sim_config(ranks, seed), &recorder);
  const auto start = bench::Clock::now();
  apps::run_mcb(sim, mcb);
  recorder.finalize();
  Row row;
  row.workers = 1;
  row.seconds = bench::seconds_since(start, "bench.parallel_record_ns");
  row.events = sim.stats().scheduler_events;
  row.digest = recorder.order_digest();
  return row;
}

/// Replays the record under another noise seed; the digest is the
/// replayer's receive-order digest, equal to the recording's when the
/// replay surfaced the recorded order.
Row replay_once(int ranks, int workers, const apps::McbConfig& mcb,
                std::uint64_t seed, const runtime::RecordStore* store) {
  tool::Replayer replayer(ranks, store);
  minimpi::Simulator::Config config = bench::sim_config(ranks, seed);
  config.workers = workers;
  minimpi::Simulator sim(config, &replayer);
  const auto start = bench::Clock::now();
  apps::run_mcb(sim, mcb);
  Row row;
  row.workers = workers;
  row.seconds = bench::seconds_since(start, "bench.parallel_replay_ns");
  row.events = sim.stats().scheduler_events;
  row.digest = replayer.order_digest();
  row.fully_replayed = replayer.fully_replayed();
  return row;
}

apps::McbConfig bench_mcb(int ranks) {
  const auto [gx, gy] = bench::grid_for(ranks);
  apps::McbConfig config;
  config.grid_x = gx;
  config.grid_y = gy;
  config.particles_per_rank = bench::env_int("CDC_PARTICLES", 2);
  config.segments_per_particle = 4;
  config.tracks_per_poll = 8;
  return config;
}

bool print_scaling(const char* engine, const std::vector<Row>& rows) {
  bool same = true;
  for (const Row& row : rows) {
    same &= row.digest == rows.front().digest;
    std::printf("%-8s %8d %10.2f %12.0f %8.2fx   %016llx\n", engine,
                row.workers, row.seconds, row.events_per_sec(),
                rows.front().seconds / row.seconds,
                static_cast<unsigned long long>(row.digest));
  }
  return same;
}

void write_rows(obs::JsonWriter& w, const char* key,
                const std::vector<Row>& rows, bool replay) {
  w.key(key).begin_array();
  for (const Row& row : rows) {
    w.begin_object();
    w.field("workers", static_cast<std::uint64_t>(row.workers));
    w.field("seconds", row.seconds);
    w.field("events", row.events);
    w.field("events_per_sec", row.events_per_sec());
    w.field("speedup_vs_1", rows.front().seconds / row.seconds);
    w.field("order_digest", row.digest);
    if (replay) w.field("fully_replayed", row.fully_replayed);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

int main() {
  const int ranks = bench::env_int("CDC_RANKS", 3072);
  const int large_ranks = bench::env_int("CDC_LARGE_RANKS", 12288);
  const std::uint64_t seed = bench::default_seed();
  const unsigned host_cores = std::thread::hardware_concurrency();
  bench::print_machine_banner(
      "Figure 25 — parallel simulator scaling (conservative time-windows)",
      ranks);
  std::printf("host cores: %u (speedup rows with workers beyond that "
              "measure\noversubscription, not the engine)\n\n",
              host_cores);

  const apps::McbConfig mcb = bench_mcb(ranks);
  std::printf("%-8s %8s %10s %12s %9s   %s\n", "run", "workers", "seconds",
              "events/sec", "speedup", "order digest");
  std::vector<Row> scaling;
  for (const int workers : kWorkerCounts)
    scaling.push_back(run_once(ranks, workers, mcb, seed));
  const bool plain_match = print_scaling("plain", scaling);

  // Record once, then replay under another network condition at every
  // worker count: each replay must surface the recorded order.
  runtime::MemoryStore store;
  const Row record = record_once(ranks, mcb, seed, &store);
  std::printf("%-8s %8d %10.2f %12.0f %9s   %016llx\n", "record",
              record.workers, record.seconds, record.events_per_sec(), "-",
              static_cast<unsigned long long>(record.digest));
  std::vector<Row> replays;
  for (const int workers : kWorkerCounts)
    replays.push_back(replay_once(ranks, workers, mcb, seed + 1, &store));
  bool replay_match = print_scaling("replay", replays);
  for (const Row& row : replays)
    replay_match &= row.digest == record.digest && row.fully_replayed;

  std::printf("\nplain order digests across worker counts: %s\n",
              plain_match ? "IDENTICAL (worker-count-invariant)"
                          : "DIVERGED — determinism bug");
  std::printf("replay order digests: %s\n",
              replay_match ? "IDENTICAL to the recording at every worker count"
                           : "DIVERGED — replay bug");

  // The large completion run: the engine must handle 12,288 ranks (4x the
  // paper's largest MCB) without the per-rank shards, outboxes or the
  // ready-list machinery becoming the bottleneck.
  Row large;
  if (large_ranks > 0) {
    const apps::McbConfig large_mcb = bench_mcb(large_ranks);
    const int large_workers =
        host_cores >= 8 ? 8 : static_cast<int>(host_cores > 0 ? host_cores
                                                              : 1);
    large = run_once(large_ranks, large_workers, large_mcb, seed);
    std::printf("\nlarge run: %d ranks, %d workers — %.2fs, %llu events "
                "(%.0f events/sec)\n",
                large_ranks, large.workers, large.seconds,
                static_cast<unsigned long long>(large.events),
                large.events_per_sec());
  }

  // --- machine-readable output ------------------------------------------
  obs::JsonWriter w;
  w.begin_object();
  w.field("bench", "fig25_parallel_sim");
  w.field("host_cores", static_cast<std::uint64_t>(host_cores));
  w.field("ranks", static_cast<std::uint64_t>(ranks));
  w.field("seed", seed);
  w.field("particles_per_rank",
          static_cast<std::uint64_t>(mcb.particles_per_rank));
  write_rows(w, "scaling", scaling, /*replay=*/false);
  w.key("record").begin_object();
  w.field("workers", static_cast<std::uint64_t>(record.workers));
  w.field("seconds", record.seconds);
  w.field("events", record.events);
  w.field("order_digest", record.digest);
  w.end_object();
  w.field("replay_seed", seed + 1);
  write_rows(w, "replay", replays, /*replay=*/true);
  if (large_ranks > 0) {
    w.key("large_run").begin_object();
    w.field("ranks", static_cast<std::uint64_t>(large_ranks));
    w.field("workers", static_cast<std::uint64_t>(large.workers));
    w.field("seconds", large.seconds);
    w.field("events", large.events);
    w.field("order_digest", large.digest);
    w.field("completed", true);
    w.end_object();
  }
  w.end_object();
  if (bench::write_bench_json("BENCH_parallel.json", std::move(w).take()))
    std::printf("\nwrote BENCH_parallel.json\n");

  return plain_match && replay_match ? 0 : 1;
}
