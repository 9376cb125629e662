// Fault-injection mechanics: determinism, statistics, and the transport
// invariants (duplicates never reach MPI matching; disabled plans leave a
// run bit-identical).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "apps/taskfarm.h"
#include "minimpi/fault.h"
#include "minimpi/schedule_fuzzer.h"
#include "minimpi/simulator.h"
#include "runtime/storage.h"
#include "support/oracle.h"
#include "tool/recorder.h"

namespace cdc {
namespace {

minimpi::Simulator::Config config_with(const minimpi::FaultPlan& plan,
                                       std::uint64_t noise_seed = 5) {
  minimpi::Simulator::Config config;
  config.num_ranks = 6;
  config.noise_seed = noise_seed;
  config.faults = plan;
  return config;
}

apps::TaskFarmConfig farm() {
  apps::TaskFarmConfig config;
  config.tasks = 120;
  return config;
}

/// Runs the task farm and returns the recorder's order digest — the
/// witness for "same application-level receive order".
std::uint64_t digest_of(const minimpi::Simulator::Config& config,
                        apps::TaskFarmResult* result = nullptr,
                        minimpi::FaultStats* faults = nullptr) {
  runtime::MemoryStore store;
  tool::Recorder recorder(config.num_ranks, &store);
  minimpi::Simulator sim(config, &recorder);
  const auto r = apps::run_taskfarm(sim, farm());
  if (result != nullptr) *result = r;
  if (faults != nullptr) *faults = sim.fault_stats();
  return recorder.order_digest();
}

TEST(FaultPlan, DisabledPlanDrawsNothing) {
  // A default FaultPlan (all probabilities zero) must leave the run
  // bit-identical to the same config without faults: the fault RNG is a
  // separate stream and a disabled plan never consults it.
  minimpi::FaultPlan disabled;
  disabled.seed = 0xdecafbad;  // a seed alone must change nothing
  EXPECT_FALSE(disabled.enabled());
  apps::TaskFarmResult plain, seeded;
  EXPECT_EQ(digest_of(config_with({}), &plain),
            digest_of(config_with(disabled), &seeded));
  EXPECT_EQ(plain.accumulated, seeded.accumulated);
}

TEST(FaultPlan, SameSeedInjectsIdenticalFaults) {
  minimpi::FaultPlan plan;
  plan.seed = 7;
  plan.delay_spike_probability = 0.05;
  plan.reorder_burst_probability = 0.02;
  plan.duplicate_probability = 0.05;
  plan.stall_probability = 0.01;
  minimpi::FaultStats a, b;
  apps::TaskFarmResult ra, rb;
  EXPECT_EQ(digest_of(config_with(plan), &ra, &a),
            digest_of(config_with(plan), &rb, &b));
  EXPECT_EQ(ra.accumulated, rb.accumulated);
  EXPECT_EQ(a.delay_spikes, b.delay_spikes);
  EXPECT_EQ(a.burst_messages, b.burst_messages);
  EXPECT_EQ(a.duplicates_injected, b.duplicates_injected);
  EXPECT_EQ(a.stalls, b.stalls);
  EXPECT_EQ(a.stall_seconds, b.stall_seconds);
}

TEST(FaultPlan, DifferentFaultSeedsPermuteTheReceiveOrder) {
  minimpi::FaultPlan plan;
  plan.reorder_burst_probability = 0.1;
  plan.seed = 1;
  const std::uint64_t a = digest_of(config_with(plan));
  plan.seed = 2;
  const std::uint64_t b = digest_of(config_with(plan));
  EXPECT_NE(a, b);  // same noise seed: the difference is the faults alone
}

TEST(FaultPlan, EveryClassFiresAndIsCounted) {
  minimpi::FaultPlan plan;
  plan.seed = 3;
  plan.delay_spike_probability = 0.05;
  plan.reorder_burst_probability = 0.02;
  plan.duplicate_probability = 0.05;
  plan.stall_probability = 0.01;
  minimpi::FaultStats stats;
  digest_of(config_with(plan), nullptr, &stats);
  EXPECT_GT(stats.delay_spikes, 0u);
  EXPECT_GT(stats.reorder_bursts, 0u);
  EXPECT_GE(stats.burst_messages, stats.reorder_bursts);
  EXPECT_GT(stats.duplicates_injected, 0u);
  EXPECT_GT(stats.stalls, 0u);
  EXPECT_GT(stats.stall_seconds, 0.0);
}

TEST(FaultPlan, DuplicatesNeverReachTheApplication) {
  // Transport dedup must drop every injected copy (also asserted inside
  // Simulator::run()), and the application-visible message count must be
  // exactly that of the duplicate-free run under the same noise seed:
  // duplicates perturb timing only.
  minimpi::FaultPlan plan;
  plan.seed = 11;
  plan.duplicate_probability = 0.3;
  minimpi::FaultStats stats;
  apps::TaskFarmResult with_dups, without;
  digest_of(config_with(plan), &with_dups, &stats);
  digest_of(config_with({}), &without);
  EXPECT_GT(stats.duplicates_injected, 0u);
  EXPECT_EQ(stats.duplicates_injected, stats.duplicates_dropped);
  EXPECT_EQ(with_dups.completed, without.completed);
}

TEST(FaultPlan, StallsAdvanceVirtualTime) {
  minimpi::FaultPlan plan;
  plan.seed = 4;
  plan.stall_probability = 0.05;
  apps::TaskFarmResult stalled, smooth;
  minimpi::FaultStats stats;
  digest_of(config_with(plan), &stalled, &stats);
  digest_of(config_with({}), &smooth);
  EXPECT_GT(stats.stall_seconds, 0.0);
  EXPECT_GT(stalled.elapsed, smooth.elapsed);
}

TEST(FaultPlan, ObserverHookSeesEveryMessageFault) {
  // The on_fault hook is observational: counts reported to a probe agree
  // with the simulator's own statistics.
  minimpi::FaultPlan plan;
  plan.seed = 9;
  plan.delay_spike_probability = 0.05;
  plan.duplicate_probability = 0.05;
  plan.stall_probability = 0.01;
  support::OrderProbe probe;  // no inner tool: untooled semantics
  minimpi::Simulator sim(config_with(plan), &probe);
  apps::run_taskfarm(sim, farm());
  const minimpi::FaultStats& stats = sim.fault_stats();
  EXPECT_EQ(probe.fault_count(minimpi::FaultKind::kDelaySpike),
            stats.delay_spikes);
  EXPECT_EQ(probe.fault_count(minimpi::FaultKind::kDuplicate),
            stats.duplicates_injected);
  EXPECT_EQ(probe.fault_count(minimpi::FaultKind::kRankStall), stats.stalls);
}

TEST(FaultGolden, TransportClassesPinTallies) {
  // The fuzzer's plan for each transport class at fault seed 5, on the
  // 6-rank, 120-task farm. Every tally and the virtual end time depend on
  // the plan's constants (spike factor, burst length and spread, stall
  // mean) as well as on its probabilities.
  struct Golden {
    fuzz::FaultClass cls;
    std::uint64_t delay_spikes, reorder_bursts, burst_messages,
        duplicates_injected, duplicates_dropped, stalls, stall_seconds_bits,
        rank_kills, end_time_bits;
  };
  const Golden cases[] = {
      {fuzz::FaultClass::kDelaySpike, 9, 0, 0, 0, 0, 0, 0x0ull, 0,
       0x3f417284f7c28e0full},
      {fuzz::FaultClass::kReorderBurst, 0, 3, 23, 0, 0, 0, 0x0ull, 0,
       0x3f32739b6a8c1c3bull},
      {fuzz::FaultClass::kDuplicate, 0, 0, 0, 9, 9, 0, 0x0ull, 0,
       0x3f26e7687400fd8bull},
      {fuzz::FaultClass::kRankStall, 0, 0, 0, 0, 0, 2,
       0x3f131400054c1842ull, 0, 0x3f2c05dd738c0193ull},
      {fuzz::FaultClass::kAll, 8, 2, 16, 10, 10, 0, 0x0ull, 0,
       0x3f402b07205dd61eull},
  };
  for (const Golden& g : cases) {
    SCOPED_TRACE(fuzz::fault_class_name(g.cls));
    minimpi::Simulator sim(config_with(fuzz::plan_for(g.cls, 5)));
    apps::run_taskfarm(sim, farm());
    const minimpi::FaultStats& got = sim.fault_stats();
    EXPECT_EQ(got.delay_spikes, g.delay_spikes);
    EXPECT_EQ(got.reorder_bursts, g.reorder_bursts);
    EXPECT_EQ(got.burst_messages, g.burst_messages);
    EXPECT_EQ(got.duplicates_injected, g.duplicates_injected);
    EXPECT_EQ(got.duplicates_dropped, g.duplicates_dropped);
    EXPECT_EQ(got.stalls, g.stalls);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.stall_seconds),
              g.stall_seconds_bits);
    EXPECT_EQ(got.rank_kills, g.rank_kills);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sim.stats().end_time),
              g.end_time_bits);
  }
}

}  // namespace
}  // namespace cdc
