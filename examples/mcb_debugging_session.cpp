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
#include <cstdio>
#include <cstdlib>

#include "apps/mcb.h"
#include "minimpi/simulator.h"
#include "obs/stats.h"
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
  const int gx = argc > 1 ? std::atoi(argv[1]) : 4;
  const int gy = argc > 2 ? std::atoi(argv[2]) : 4;
  const int particles = argc > 3 ? std::atoi(argv[3]) : 200;

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
