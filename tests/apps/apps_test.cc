#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "apps/jacobi.h"
#include "apps/mcb.h"
#include "apps/taskfarm.h"
#include "minimpi/simulator.h"

namespace cdc::apps {
namespace {

minimpi::Simulator::Config sim_config(int ranks, std::uint64_t seed) {
  minimpi::Simulator::Config c;
  c.num_ranks = ranks;
  c.noise_seed = seed;
  return c;
}

TEST(Mcb, ConservesParticleWork) {
  McbConfig config;
  config.grid_x = 2;
  config.grid_y = 2;
  config.particles_per_rank = 50;
  config.segments_per_particle = 6;

  minimpi::Simulator sim(sim_config(4, 1), nullptr);
  const McbResult result = run_mcb(sim, config);
  // Every particle is tracked for its full segment budget, independent of
  // which rank processes it.
  EXPECT_GT(result.total_tracks, 0u);
  EXPECT_GT(result.global_tally, 0.0);
  EXPECT_GT(result.tracks_per_sec, 0.0);
  EXPECT_GT(result.messages, 0u);
}

TEST(Mcb, TrackCountIndependentOfNoise) {
  McbConfig config;
  config.grid_x = 3;
  config.grid_y = 2;
  config.particles_per_rank = 30;
  config.segments_per_particle = 5;

  minimpi::Simulator sim_a(sim_config(6, 10), nullptr);
  minimpi::Simulator sim_b(sim_config(6, 20), nullptr);
  const auto a = run_mcb(sim_a, config);
  const auto b = run_mcb(sim_b, config);
  // Physics (total segments) is noise-independent; only ordering varies.
  EXPECT_EQ(a.total_tracks, b.total_tracks);
  EXPECT_NEAR(a.global_tally, b.global_tally, 1e-6 * a.global_tally);
}

TEST(Mcb, SingleRankHasNoMessagesButCompletes) {
  McbConfig config;
  config.grid_x = 1;
  config.grid_y = 1;
  config.particles_per_rank = 20;
  config.segments_per_particle = 4;

  minimpi::Simulator sim(sim_config(1, 1), nullptr);
  const auto result = run_mcb(sim, config);
  EXPECT_GT(result.total_tracks, 0u);
}

TEST(Mcb, WeakScalingIncreasesWork) {
  McbConfig small;
  small.grid_x = 2;
  small.grid_y = 1;
  small.particles_per_rank = 30;
  small.segments_per_particle = 4;
  McbConfig big = small;
  big.grid_x = 2;
  big.grid_y = 2;

  minimpi::Simulator sim_small(sim_config(2, 1), nullptr);
  minimpi::Simulator sim_big(sim_config(4, 1), nullptr);
  const auto a = run_mcb(sim_small, small);
  const auto b = run_mcb(sim_big, big);
  EXPECT_GT(b.total_tracks, a.total_tracks);
}

TEST(Mcb, LiveRequestsDoNotGrowWithTraffic) {
  // Every delivered receive is re-posted into the slot it freed, so the
  // per-rank receive table stays at the program's posting depth however
  // many particles flow.
  std::uint64_t live[2] = {};
  std::uint64_t messages[2] = {};
  const int particles[2] = {40, 400};
  for (int i = 0; i < 2; ++i) {
    McbConfig config;
    config.grid_x = 3;
    config.grid_y = 3;
    config.particles_per_rank = particles[i];
    minimpi::Simulator sim(sim_config(9, 7), nullptr);
    run_mcb(sim, config);
    live[i] = sim.stats().max_live_requests;
    messages[i] = sim.stats().messages_sent;
  }
  EXPECT_GT(live[0], 0u);
  EXPECT_EQ(live[0], live[1]);
  EXPECT_GT(messages[1], 5 * messages[0]);
}

TEST(Mcb, EveryParkedMessageIsFreedByRunEnd) {
  // MCB receives every message it sends, so every message-slab slot
  // parked during the run is back on a free list when the run ends — a
  // leaked slot shows as an unreceived message. The slab's high-water
  // mark is a function of the schedule, so the worker count leaves it be.
  const int particles[2] = {40, 400};
  for (const int p : particles) {
    std::uint64_t live[2] = {};
    const int workers[2] = {1, 4};
    for (int w = 0; w < 2; ++w) {
      SCOPED_TRACE(testing::Message()
                   << "particles=" << p << " workers=" << workers[w]);
      McbConfig config;
      config.grid_x = 3;
      config.grid_y = 3;
      config.particles_per_rank = p;
      minimpi::Simulator::Config sim_cfg = sim_config(9, 7);
      sim_cfg.workers = workers[w];
      minimpi::Simulator sim(sim_cfg, nullptr);
      run_mcb(sim, config);
      EXPECT_EQ(sim.stats().unreceived_messages, 0u);
      EXPECT_GT(sim.stats().max_live_messages, 0u);
      EXPECT_LE(sim.stats().max_live_messages, sim.stats().messages_sent);
      live[w] = sim.stats().max_live_messages;
    }
    EXPECT_EQ(live[0], live[1]);
  }
}

TEST(Jacobi, ResidualDecreasesWithIterations) {
  JacobiConfig short_run;
  short_run.grid_x = 2;
  short_run.grid_y = 2;
  short_run.local_nx = 8;
  short_run.local_ny = 8;
  short_run.iterations = 5;
  JacobiConfig long_run = short_run;
  long_run.iterations = 200;

  minimpi::Simulator sim_a(sim_config(4, 1), nullptr);
  minimpi::Simulator sim_b(sim_config(4, 1), nullptr);
  const auto a = run_jacobi(sim_a, short_run);
  const auto b = run_jacobi(sim_b, long_run);
  EXPECT_GT(a.residual, 0.0);
  EXPECT_LT(b.residual, a.residual);  // converging
}

TEST(Jacobi, MessageCountMatchesHaloStructure) {
  JacobiConfig config;
  config.grid_x = 3;
  config.grid_y = 3;
  config.local_nx = 4;
  config.local_ny = 4;
  config.iterations = 10;

  minimpi::Simulator sim(sim_config(9, 1), nullptr);
  const auto result = run_jacobi(sim, config);
  // 3x3 grid: 12 interior edges, 2 messages per edge per iteration.
  EXPECT_EQ(result.messages, 12u * 2u * 10u);
}

TEST(Jacobi, SingleColumnGrid) {
  JacobiConfig config;
  config.grid_x = 1;
  config.grid_y = 4;
  config.local_nx = 4;
  config.local_ny = 4;
  config.iterations = 8;

  minimpi::Simulator sim(sim_config(4, 2), nullptr);
  const auto result = run_jacobi(sim, config);
  EXPECT_GT(result.residual, 0.0);
}

TEST(TaskFarm, CompletesAllTasks) {
  TaskFarmConfig config;
  config.tasks = 100;
  minimpi::Simulator sim(sim_config(5, 1), nullptr);
  const auto result = run_taskfarm(sim, config);
  EXPECT_EQ(result.completed, 100u);
  EXPECT_GT(result.accumulated, 0.0);
  // Each task: one item message + one result message; plus stop markers.
  EXPECT_EQ(result.messages, 2u * 100u + 4u);
}

TEST(TaskFarm, WorkIsNoiseIndependent) {
  TaskFarmConfig config;
  config.tasks = 150;
  minimpi::Simulator sim_a(sim_config(6, 5), nullptr);
  minimpi::Simulator sim_b(sim_config(6, 6), nullptr);
  const auto a = run_taskfarm(sim_a, config);
  const auto b = run_taskfarm(sim_b, config);
  EXPECT_EQ(a.completed, b.completed);
  // Same multiset of values folded in a different order: near-equal.
  EXPECT_NEAR(a.accumulated, b.accumulated, 1e-6 * a.accumulated);
}

TEST(TaskFarm, FewerTasksThanWorkers) {
  TaskFarmConfig config;
  config.tasks = 2;
  minimpi::Simulator sim(sim_config(8, 1), nullptr);
  const auto result = run_taskfarm(sim, config);
  EXPECT_EQ(result.completed, 2u);
}

TEST(TaskFarm, SingleWorker) {
  TaskFarmConfig config;
  config.tasks = 25;
  minimpi::Simulator sim(sim_config(2, 1), nullptr);
  const auto result = run_taskfarm(sim, config);
  EXPECT_EQ(result.completed, 25u);
}

TEST(TaskFarm, ZeroTasks) {
  TaskFarmConfig config;
  config.tasks = 0;
  minimpi::Simulator sim(sim_config(4, 1), nullptr);
  const auto result = run_taskfarm(sim, config);
  EXPECT_EQ(result.completed, 0u);
  EXPECT_DOUBLE_EQ(result.accumulated, 0.0);
}

/// A double's bit pattern: golden values pin every last bit.
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(AppsGolden, DefaultParametersPinResults) {
  // One run per app at noise seed 7, every parameter not set here at its
  // default. The result bits, the virtual end time and the event count
  // change whenever a default does: the simulator's latency, jitter and
  // call cost, and each app's per-item costs, seeds and receive depth.
  McbConfig mcb;
  mcb.grid_x = 3;
  mcb.grid_y = 3;
  mcb.particles_per_rank = 100;
  minimpi::Simulator mcb_sim(sim_config(9, 7), nullptr);
  const McbResult mcb_result = run_mcb(mcb_sim, mcb);
  EXPECT_EQ(bits(mcb_result.global_tally), 0x40b2da43f9ceacf7ull);
  EXPECT_EQ(bits(mcb_sim.stats().end_time), 0x3f575ef7065c3a63ull);
  EXPECT_EQ(mcb_sim.stats().scheduler_events, 9297u);

  TaskFarmConfig farm;
  farm.tasks = 200;
  minimpi::Simulator farm_sim(sim_config(6, 7), nullptr);
  const TaskFarmResult farm_result = run_taskfarm(farm_sim, farm);
  EXPECT_EQ(bits(farm_result.accumulated), 0x40729ee4ea61f6f5ull);
  EXPECT_EQ(bits(farm_sim.stats().end_time), 0x3f32964fc7a60690ull);
  EXPECT_EQ(farm_sim.stats().scheduler_events, 1416u);

  JacobiConfig jacobi;
  jacobi.grid_x = 2;
  jacobi.grid_y = 2;
  jacobi.iterations = 20;
  minimpi::Simulator jacobi_sim(sim_config(4, 7), nullptr);
  const JacobiResult jacobi_result = run_jacobi(jacobi_sim, jacobi);
  EXPECT_EQ(bits(jacobi_result.residual), 0x405827684a7696f2ull);
  EXPECT_EQ(bits(jacobi_sim.stats().end_time), 0x3f125b892434373dull);
  EXPECT_EQ(jacobi_sim.stats().scheduler_events, 522u);
}

}  // namespace
}  // namespace cdc::apps
