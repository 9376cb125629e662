// End-to-end record-and-replay: the headline property of the paper.
//
// A non-deterministic MCB run is recorded under one network-noise seed and
// replayed under different seeds; replay must reproduce the recorded
// receive-event order exactly — making the order-sensitive floating-point
// tally bitwise identical — even though the replay run's own message
// timing differs.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/jacobi.h"
#include "apps/mcb.h"
#include "apps/taskfarm.h"
#include "minimpi/simulator.h"
#include "runtime/storage.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace cdc {
namespace {

minimpi::Simulator::Config sim_config(int ranks, std::uint64_t noise_seed) {
  minimpi::Simulator::Config config;
  config.num_ranks = ranks;
  config.noise_seed = noise_seed;
  return config;
}

apps::McbConfig small_mcb(int gx, int gy) {
  apps::McbConfig config;
  config.grid_x = gx;
  config.grid_y = gy;
  config.particles_per_rank = 40;
  config.segments_per_particle = 8;
  config.tracks_per_poll = 16;
  return config;
}

apps::McbResult run_mcb_with(int gx, int gy, std::uint64_t noise_seed,
                             minimpi::ToolHooks* hooks) {
  minimpi::Simulator sim(sim_config(gx * gy, noise_seed), hooks);
  return apps::run_mcb(sim, small_mcb(gx, gy));
}

TEST(NonDeterminism, DifferentNoiseSeedsChangeTheReceiveOrder) {
  // §2.1: network noise permutes the application-level receive order.
  // (The tally differs only in the last bits and may occasionally collide,
  // so the order digest is the robust witness.)
  runtime::MemoryStore store_a;
  runtime::MemoryStore store_b;
  tool::Recorder rec_a(9, &store_a);
  tool::Recorder rec_b(9, &store_b);
  const auto a = run_mcb_with(3, 3, /*noise_seed=*/1, &rec_a);
  const auto b = run_mcb_with(3, 3, /*noise_seed=*/2, &rec_b);
  EXPECT_EQ(a.total_tracks, b.total_tracks);  // same physics
  EXPECT_NE(rec_a.order_digest(), rec_b.order_digest());
  EXPECT_NEAR(a.global_tally, b.global_tally,
              1e-6 * std::abs(a.global_tally));  // differs in low bits only
}

TEST(NonDeterminism, TallyDiffersForSomeSeedPair) {
  // Double-precision addition is not associative: among a handful of
  // seeds, at least one pair must give a different tally. The tally's low
  // bits can collide by luck for every seed at small_mcb's 40 particles
  // per rank, even though the receive order differs, so this test sums
  // more particles.
  apps::McbConfig config = small_mcb(3, 3);
  config.particles_per_rank = 200;
  const auto tally = [&config](std::uint64_t seed) {
    minimpi::Simulator sim(sim_config(9, seed));
    return apps::run_mcb(sim, config).global_tally;
  };
  const double reference = tally(1);
  bool any_different = false;
  for (std::uint64_t seed = 2; seed <= 6 && !any_different; ++seed)
    any_different = tally(seed) != reference;
  EXPECT_TRUE(any_different);
}

TEST(NonDeterminism, SameSeedIsReproducible) {
  const auto a = run_mcb_with(3, 3, 7, nullptr);
  const auto b = run_mcb_with(3, 3, 7, nullptr);
  EXPECT_EQ(a.global_tally, b.global_tally);
  EXPECT_EQ(a.messages, b.messages);
}

class McbRecordReplay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McbRecordReplay, ReplayReproducesTheRecordedRunBitwise) {
  const std::uint64_t record_seed = 11;
  const std::uint64_t replay_seed = GetParam();

  runtime::MemoryStore store;
  tool::ToolOptions options;
  options.chunk_target = 64;  // force multiple chunks through epoch logic

  tool::Recorder recorder(9, &store, options);
  const auto recorded = run_mcb_with(3, 3, record_seed, &recorder);
  recorder.finalize();
  ASSERT_GT(store.total_bytes(), 0u);

  tool::Replayer replayer(9, &store, options);
  const auto replayed = run_mcb_with(3, 3, replay_seed, &replayer);

  // Bitwise-identical tally: the recorded receive order was reproduced.
  EXPECT_EQ(recorded.global_tally, replayed.global_tally);
  EXPECT_EQ(recorded.total_tracks, replayed.total_tracks);
  EXPECT_TRUE(replayer.fully_replayed());
  EXPECT_EQ(replayer.totals().replayed_events,
            recorder.totals().matched_events);
  EXPECT_EQ(replayer.totals().replayed_unmatched,
            recorder.totals().unmatched_events);
}

INSTANTIATE_TEST_SUITE_P(ReplaySeeds, McbRecordReplay,
                         ::testing::Values(11,  // same seed as record
                                           12, 13, 99, 1234));

TEST(McbRecordReplay, ReplayDiffersWithoutTheTool) {
  // Control experiment: without replay, different seeds give different
  // receive orders (witnessed by the order digest; the tally may
  // occasionally collide after rounding) — the equalities above are due
  // to CDC, not coincidence.
  runtime::MemoryStore store_a;
  runtime::MemoryStore store_b;
  tool::Recorder rec_a(9, &store_a);
  tool::Recorder rec_b(9, &store_b);
  run_mcb_with(3, 3, 11, &rec_a);
  run_mcb_with(3, 3, 12, &rec_b);
  EXPECT_NE(rec_a.order_digest(), rec_b.order_digest());
}

TEST(McbRecordReplay, LargerGridAndSmallChunks) {
  runtime::MemoryStore store;
  tool::ToolOptions options;
  options.chunk_target = 16;  // stress chunk-boundary replay

  tool::Recorder recorder(16, &store, options);
  minimpi::Simulator rec_sim(sim_config(16, 3), &recorder);
  const auto recorded = apps::run_mcb(rec_sim, small_mcb(4, 4));
  recorder.finalize();

  tool::Replayer replayer(16, &store, options);
  minimpi::Simulator rep_sim(sim_config(16, 77), &replayer);
  const auto replayed = apps::run_mcb(rep_sim, small_mcb(4, 4));

  EXPECT_EQ(recorded.global_tally, replayed.global_tally);
  EXPECT_TRUE(replayer.fully_replayed());
}

TEST(McbRecordReplay, MergedCallsitesRecordButCannotReplay) {
  // The "CDC (RE+PE+LPE)" variant — MF identification (§4.4) off — is a
  // compression ablation: recording works (and Figure 13 measures it), but
  // replay identification requires per-callsite streams, so the replayer
  // refuses the option up front rather than diverging silently.
  runtime::MemoryStore store;
  tool::ToolOptions options;
  options.identify_callsites = false;
  options.chunk_target = 64;

  tool::Recorder recorder(9, &store, options);
  run_mcb_with(3, 3, 5, &recorder);
  recorder.finalize();
  EXPECT_GT(store.total_bytes(), 0u);

  EXPECT_DEATH(tool::Replayer(9, &store, options),
               "replay requires MF identification");
}

TEST(McbRecordReplay, OrderDigestMatchesBetweenRecordAndReplay) {
  runtime::MemoryStore store;
  tool::ToolOptions options;
  options.chunk_target = 48;

  tool::Recorder recorder(9, &store, options);
  run_mcb_with(3, 3, 41, &recorder);
  recorder.finalize();

  tool::Replayer replayer(9, &store, options);
  run_mcb_with(3, 3, 42, &replayer);
  EXPECT_EQ(recorder.order_digest(), replayer.order_digest());
}

TEST(JacobiRecordReplay, HiddenDeterminismReplays) {
  apps::JacobiConfig config;
  config.grid_x = 3;
  config.grid_y = 3;
  config.local_nx = 8;
  config.local_ny = 8;
  config.iterations = 50;

  runtime::MemoryStore store;
  tool::ToolOptions options;
  options.chunk_target = 32;

  tool::Recorder recorder(9, &store, options);
  minimpi::Simulator rec_sim(sim_config(9, 21), &recorder);
  const auto recorded = apps::run_jacobi(rec_sim, config);
  recorder.finalize();

  tool::Replayer replayer(9, &store, options);
  minimpi::Simulator rep_sim(sim_config(9, 22), &replayer);
  const auto replayed = apps::run_jacobi(rep_sim, config);

  EXPECT_EQ(recorded.residual, replayed.residual);
  EXPECT_TRUE(replayer.fully_replayed());
}

TEST(TaskFarmRecordReplay, WaitanyStreamsReplayBitwise) {
  // The task farm exercises Waitany at the master (first-come-first-served
  // result folding) and Wait at the workers — MF kinds MCB does not use.
  apps::TaskFarmConfig config;
  config.tasks = 300;

  runtime::MemoryStore store;
  tool::ToolOptions options;
  options.chunk_target = 32;

  tool::Recorder recorder(8, &store, options);
  minimpi::Simulator rec_sim(sim_config(8, 61), &recorder);
  const auto recorded = apps::run_taskfarm(rec_sim, config);
  recorder.finalize();
  EXPECT_EQ(recorded.completed, 300u);

  tool::Replayer replayer(8, &store, options);
  minimpi::Simulator rep_sim(sim_config(8, 62), &replayer);
  const auto replayed = apps::run_taskfarm(rep_sim, config);

  EXPECT_EQ(recorded.accumulated, replayed.accumulated);
  EXPECT_TRUE(replayer.fully_replayed());
  EXPECT_EQ(recorder.order_digest(), replayer.order_digest());
}

TEST(TaskFarmRecordReplay, CompletionOrderIsNoiseDependent) {
  apps::TaskFarmConfig config;
  config.tasks = 300;
  runtime::MemoryStore store_a;
  runtime::MemoryStore store_b;
  tool::Recorder rec_a(8, &store_a);
  tool::Recorder rec_b(8, &store_b);
  minimpi::Simulator sim_a(sim_config(8, 1), &rec_a);
  minimpi::Simulator sim_b(sim_config(8, 2), &rec_b);
  const auto a = apps::run_taskfarm(sim_a, config);
  const auto b = apps::run_taskfarm(sim_b, config);
  EXPECT_EQ(a.completed, b.completed);  // same work either way
  EXPECT_NE(rec_a.order_digest(), rec_b.order_digest());
}

TEST(ChunkInvariance, ChunkSizeDoesNotAffectReplaySemantics) {
  // The same run recorded with tiny chunks and with effectively one chunk
  // per stream must replay to identical receive-event streams (§3.5:
  // epoch enforcement makes chunking semantically invisible).
  std::uint64_t digests[2] = {0, 0};
  std::size_t chunk_counts[2] = {0, 0};
  const std::size_t targets[2] = {16, 1u << 20};
  for (int variant = 0; variant < 2; ++variant) {
    runtime::MemoryStore store;
    tool::ToolOptions options;
    options.chunk_target = targets[variant];
    tool::Recorder recorder(9, &store, options);
    run_mcb_with(3, 3, 33, &recorder);
    recorder.finalize();
    chunk_counts[variant] = recorder.totals().chunks;

    tool::Replayer replayer(9, &store, options);
    run_mcb_with(3, 3, 34, &replayer);
    EXPECT_TRUE(replayer.fully_replayed());
    digests[variant] = replayer.order_digest();
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_GT(chunk_counts[0], chunk_counts[1]);  // chunking really differed
}

TEST(JacobiDeterminism, ResidualIsNoiseIndependentEvenWithoutReplay) {
  // Hidden determinism: the Jacobi receive order is deterministic, so the
  // residual matches across seeds even untooled.
  apps::JacobiConfig config;
  config.grid_x = 2;
  config.grid_y = 2;
  config.local_nx = 8;
  config.local_ny = 8;
  config.iterations = 30;

  minimpi::Simulator sim_a(sim_config(4, 31), nullptr);
  minimpi::Simulator sim_b(sim_config(4, 32), nullptr);
  EXPECT_EQ(apps::run_jacobi(sim_a, config).residual,
            apps::run_jacobi(sim_b, config).residual);
}

}  // namespace
}  // namespace cdc
