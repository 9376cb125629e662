// Schedule-fuzzing end-to-end: N seeded delivery-order permutations per
// fault class through record→encode→store→decode→replay, checked by the
// replay-equivalence oracle; plus the crash-at-every-frame-boundary and
// damage-every-frame salvage sweeps.
//
// Suite names carry the `fuzz_` prefix on purpose: the nightly CI job runs
// exactly `ctest -R fuzz` (case-sensitive) across a seed matrix.
//
// Reproducing a CI failure locally: every failure line prints
// `workload=... class=... seed=...`; re-run with
//   CDC_FUZZ_BASE_SEED=<seed> CDC_FUZZ_SEEDS=1 ctest -R fuzz
// or call ScheduleFuzzer::run_case(class, seed) directly — cases are
// deterministic in (workload, class, seed).
#include <gtest/gtest.h>

#include <cstdlib>

#include "minimpi/schedule_fuzzer.h"
#include "support/oracle.h"

namespace cdc {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

fuzz::FuzzOptions options_from_env(std::uint32_t default_seeds) {
  fuzz::FuzzOptions options;
  options.base_seed = env_u64("CDC_FUZZ_BASE_SEED", 1);
  options.num_seeds = static_cast<std::uint32_t>(
      env_u64("CDC_FUZZ_SEEDS", default_seeds));
  return options;
}

TEST(fuzz_schedule, TaskfarmEverySeedEveryFaultClass) {
  // The acceptance bar: >= 64 seeds x all fault classes, oracle-clean.
  const fuzz::FuzzOptions options = options_from_env(64);
  fuzz::ScheduleFuzzer fuzzer(fuzz::taskfarm_workload(), options);
  const fuzz::FuzzReport report = fuzzer.run();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.cases_run,
            static_cast<std::uint64_t>(options.num_seeds) *
                fuzz::kAllFaultClasses.size());
  EXPECT_EQ(report.cases_passed, report.cases_run);
  EXPECT_GT(report.events_checked, 0u);
  EXPECT_GT(report.faults_injected, 0u);
}

TEST(fuzz_schedule, McbPollingIdiomUnderEveryFaultClass) {
  // Testsome polling (unmatched-test runs) under the same adversary;
  // fewer seeds — MCB cases are an order of magnitude heavier.
  const fuzz::FuzzOptions options = options_from_env(6);
  fuzz::ScheduleFuzzer fuzzer(fuzz::mcb_workload(), options);
  const fuzz::FuzzReport report = fuzzer.run();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.cases_passed, report.cases_run);
  EXPECT_GT(report.events_checked, 0u);
}

TEST(fuzz_schedule, JacobiHiddenDeterminismUnderEveryFaultClass) {
  // MCB's twin on the ANY_SOURCE halo exchange: the receive order is
  // deterministic but hidden, and the replay must pin it under every
  // transport and storage adversary.
  const fuzz::FuzzOptions options = options_from_env(6);
  fuzz::ScheduleFuzzer fuzzer(fuzz::jacobi_workload(), options);
  const fuzz::FuzzReport report = fuzzer.run();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.cases_passed, report.cases_run);
  EXPECT_GT(report.events_checked, 0u);
}

TEST(fuzz_schedule, SameCaseKeyIsBitReproducible) {
  // The reproduction contract behind every failure report: rerunning a
  // (workload, class, seed) triple injects identical faults and reaches an
  // identical verdict with identical statistics.
  const std::uint64_t seed = env_u64("CDC_FUZZ_BASE_SEED", 1) + 17;
  fuzz::FuzzReport a, b;
  for (fuzz::FuzzReport* report : {&a, &b}) {
    fuzz::ScheduleFuzzer fuzzer(fuzz::taskfarm_workload());
    EXPECT_EQ(fuzzer.run_case(fuzz::FaultClass::kAll, seed, report),
              std::nullopt);
  }
  EXPECT_EQ(a.events_checked, b.events_checked);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
}

TEST(fuzz_crash_sweep, EveryFrameBoundaryReplaysAVerifiedPrefix) {
  const std::uint64_t seed = env_u64("CDC_FUZZ_BASE_SEED", 1);
  const fuzz::SweepReport report =
      fuzz::salvage_sweep(fuzz::taskfarm_workload(), seed,
                          fuzz::SweepDamage::kTruncate);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.frames_recorded, 4u);  // the sweep actually swept
  EXPECT_EQ(report.cases_tested, report.frames_recorded + 1);
  EXPECT_EQ(report.prefixes_verified, report.cases_tested);
  EXPECT_GT(report.events_checked, 0u);
}

TEST(fuzz_damage_sweep, EveryDamagedFrameReplaysTheReportedPrefix) {
  // One flipped payload byte per case, index intact: the damaged frame's
  // stream keeps exactly its earlier frames (the prefix inspect_gaps
  // reports), so a stream is never spliced across the hole and the
  // salvaged record replays a verified prefix. Small chunks give most
  // streams several frames, so most cases damage a stream mid-way.
  const std::uint64_t seed = env_u64("CDC_FUZZ_BASE_SEED", 1);
  const fuzz::SweepReport report = fuzz::salvage_sweep(
      fuzz::taskfarm_workload(), seed, fuzz::SweepDamage::kFlipPayloadByte,
      /*scratch_dir=*/{}, /*chunk_target=*/8);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.frames_recorded, 4u);
  EXPECT_EQ(report.cases_tested, report.frames_recorded);
  EXPECT_EQ(report.prefixes_verified, report.cases_tested);
  EXPECT_GT(report.events_checked, 0u);
}

TEST(fuzz_oracle, CatchesARealDivergence) {
  // Negative control for the whole harness: two *independent* runs under
  // different noise seeds are NOT replay-equivalent, and the oracle must
  // say so. (If this fails, every green fuzz case above is meaningless.)
  const fuzz::FuzzWorkload workload = fuzz::taskfarm_workload();
  const auto untooled = [&](std::uint64_t noise_seed) {
    return fuzz::run_probed(workload, nullptr,
                            fuzz::sim_config(workload.num_ranks, noise_seed))
        .trace;
  };
  const support::OracleReport report =
      support::check_equivalence(untooled(100), untooled(101));
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.mismatches.empty());
}

}  // namespace
}  // namespace cdc
