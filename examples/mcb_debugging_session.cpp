// The paper's motivating scenario (§2.1) as a debugging session.
//
// A domain-decomposed Monte Carlo particle transport run produces a global
// tally by summing deposits in receive order — so the tally varies from
// run to run in its last bits, which can hide or confuse a bug. This
// example records a "buggy" run with CDC, then replays it several times
// under different network conditions: every replay reproduces the exact
// tally, making the anomaly deterministic and debuggable.
//
//   $ ./mcb_debugging_session [grid_x grid_y particles_per_rank]
//
// Grid sizes are whole decimals in [1, 1024], particles per rank in
// [1, INT_MAX]; anything else exits 2 with the usage line.
#include <climits>
#include <cstdio>

#include "apps/mcb.h"
#include "minimpi/simulator.h"
#include "obs/stats.h"
#include "parse_number.h"
#include "runtime/storage.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace {

cdc::apps::McbResult run(int gx, int gy, int particles,
                         std::uint64_t noise_seed,
                         cdc::minimpi::ToolHooks* hooks) {
  cdc::minimpi::Simulator::Config config;
  config.num_ranks = gx * gy;
  config.noise_seed = noise_seed;
  cdc::minimpi::Simulator sim(config, hooks);

  cdc::apps::McbConfig mcb;
  mcb.grid_x = gx;
  mcb.grid_y = gy;
  mcb.particles_per_rank = particles;
  return cdc::apps::run_mcb(sim, mcb);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kProgram = "mcb_debugging_session";
  int gx = 4;
  int gy = 4;
  int particles = 200;
  if (argc > 4 ||
      !cdc::cli::parse_positional(argc, argv, 1, kProgram, "grid_x", 1, 1024,
                                  &gx) ||
      !cdc::cli::parse_positional(argc, argv, 2, kProgram, "grid_y", 1, 1024,
                                  &gy) ||
      !cdc::cli::parse_positional(argc, argv, 3, kProgram,
                                  "particles_per_rank", 1, INT_MAX,
                                  &particles)) {
    std::fprintf(stderr, "usage: %s [grid_x grid_y particles_per_rank]\n",
                 argv[0]);
    return 2;
  }

  std::printf("== MCB non-determinism and order-replay ==\n");
  std::printf("%d x %d ranks, %d particles/rank\n\n", gx, gy, particles);

  // The "production" runs: same input, different noise, drifting tallies.
  std::printf("-- five untooled runs (network noise varies) --\n");
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto result = run(gx, gy, particles, seed, nullptr);
    std::printf("  seed %llu: tally = %.15e   (%llu tracks)\n",
                static_cast<unsigned long long>(seed), result.global_tally,
                static_cast<unsigned long long>(result.total_tracks));
  }

  // The run where "the bug showed up" — record it.
  std::printf("\n-- record the run of interest (seed 3) with CDC --\n");
  cdc::runtime::MemoryStore store;
  cdc::tool::Recorder recorder(gx * gy, &store);
  const auto buggy = run(gx, gy, particles, 3, &recorder);
  recorder.finalize();
  const auto totals = recorder.totals();
  std::printf("  tally      : %.15e\n", buggy.global_tally);
  std::printf("  events     : %llu receives, %llu unmatched tests\n",
              static_cast<unsigned long long>(totals.matched_events),
              static_cast<unsigned long long>(totals.unmatched_events));
  std::printf("  record size: %s (%.3f bytes/event)\n",
              cdc::obs::format_bytes(
                  static_cast<double>(store.total_bytes()))
                  .c_str(),
              static_cast<double>(store.total_bytes()) /
                  static_cast<double>(totals.matched_events));

  // Debug sessions: replay under wildly different network conditions.
  std::printf("\n-- three replays under different noise seeds --\n");
  bool all_exact = true;
  for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
    cdc::tool::Replayer replayer(gx * gy, &store);
    const auto replayed = run(gx, gy, particles, seed, &replayer);
    const bool exact = replayed.global_tally == buggy.global_tally;
    all_exact = all_exact && exact && replayer.fully_replayed();
    std::printf("  seed %3llu: tally = %.15e   %s\n",
                static_cast<unsigned long long>(seed),
                replayed.global_tally,
                exact ? "== recorded (bitwise)" : "!! DIVERGED");
  }
  std::printf("\n%s\n", all_exact
                            ? "every replay reproduced the recorded run"
                            : "REPLAY FAILURE");
  return all_exact ? 0 : 1;
}
