// Shared helpers for the figure-reproduction benches.
//
// Every bench prints (a) the simulated-machine configuration (standing in
// for the paper's Table 1 Catalyst description), (b) the measured rows of
// the figure it reproduces, and (c) the paper's reported shape for
// comparison. Scale knobs:
//   CDC_FULL=1      run at the paper's process counts (3,072 for MCB,
//                   6,000+ for Jacobi) — minutes instead of seconds.
//   CDC_RANKS=N     override the rank count directly.
//   CDC_SEED=N      noise seed for every simulator a bench builds via
//                   sim_config (default 1). Together with the per-bench
//                   knobs this makes every reported number reproducible
//                   from its command line alone — no hidden RNG state.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/mcb.h"
#include "minimpi/simulator.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace cdc::bench {

using Clock = std::chrono::steady_clock;

/// Wall seconds since `start`. When `metric` names an obs histogram
/// (`bench.<what>_ns`), the interval is also recorded there, so bench
/// timings land in the same snapshot the pipeline report reads — one
/// timing substrate for figures and production metrics alike.
inline double seconds_since(Clock::time_point start,
                            const char* metric = nullptr) {
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (metric != nullptr && seconds > 0.0)
    obs::histogram(metric).record(
        static_cast<std::uint64_t>(seconds * 1e9));
  return seconds;
}

/// Writes a finished BENCH_*.json document (built with obs::JsonWriter —
/// every fig bench shares one emitter instead of hand-rolled fprintf
/// blocks) after a well-formedness check. Returns false on either
/// failure.
inline bool write_bench_json(const char* path, const std::string& doc) {
  if (!obs::json_well_formed(doc)) {
    std::fprintf(stderr, "bench: refusing to write malformed %s\n", path);
    return false;
  }
  if (!obs::JsonWriter::write_file(path, doc)) {
    std::fprintf(stderr, "bench: cannot write %s\n", path);
    return false;
  }
  return true;
}

inline bool full_scale() {
  const char* env = std::getenv("CDC_FULL");
  return env != nullptr && env[0] == '1';
}

inline int env_int(const char* name, int fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::atoi(env) : fallback;
}

/// Splits `ranks` into the most square grid_x x grid_y factorisation.
inline std::pair<int, int> grid_for(int ranks) {
  int best = 1;
  for (int x = 1; x * x <= ranks; ++x)
    if (ranks % x == 0) best = x;
  return {ranks / best, best};
}

inline void print_machine_banner(const char* figure, int ranks) {
  const minimpi::Simulator::Config defaults;
  std::printf("==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("--------------------------------------------------------------\n");
  std::printf("substrate : MiniMPI discrete-event simulator (this repo)\n");
  std::printf("            base latency %g us + Exp(%g us) jitter per message\n",
              defaults.base_latency * 1e6, defaults.jitter_mean * 1e6);
  std::printf("            (stands in for Catalyst: 2.4 GHz Xeon E5-2695v2,\n");
  std::printf("             InfiniBand QDR, node-local SSD — paper Table 1)\n");
  std::printf("processes : %d\n", ranks);
  std::printf("--------------------------------------------------------------\n");
}

/// The common MCB workload used across the evaluation benches.
inline apps::McbConfig mcb_config(int ranks, double intensity = 1.0) {
  const auto [gx, gy] = grid_for(ranks);
  apps::McbConfig config;
  config.grid_x = gx;
  config.grid_y = gy;
  config.particles_per_rank =
      static_cast<int>(env_int("CDC_PARTICLES", 150) * intensity);
  config.segments_per_particle = 12;
  return config;
}

/// The bench-wide default noise seed: CDC_SEED when set, otherwise 1.
inline std::uint64_t default_seed() {
  const char* env = std::getenv("CDC_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

inline minimpi::Simulator::Config sim_config(int ranks,
                                             std::uint64_t seed =
                                                 default_seed()) {
  minimpi::Simulator::Config config;
  config.num_ranks = ranks;
  config.noise_seed = seed;
  return config;
}

}  // namespace cdc::bench
