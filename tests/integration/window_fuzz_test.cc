// Windowed-replay fuzzing: every case records under a seed-cycled
// transport fault class into an epoch-indexed container, full-replays it,
// then replays a seed-derived epoch window [lo, hi) and checks each
// stream's verified window slice event-for-event against the same interval
// of the full-replay trace (ScheduleFuzzer's kWindow class). The seek must
// be served by the epoch index — a sequential-read fallback fails a case.
//
// Own binary with `fuzz_window` suites so the nightly matrix job
// (`ctest -R fuzz`) picks the class up alongside the schedule fuzzer, and
// a failing seed reproduces in isolation via `ctest -R fuzz_window` with
//   CDC_FUZZ_BASE_SEED=<seed> CDC_FUZZ_SEEDS=1
#include <gtest/gtest.h>

#include <cstdlib>

#include "minimpi/schedule_fuzzer.h"

namespace cdc {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

fuzz::FuzzOptions window_options(std::uint32_t default_seeds) {
  fuzz::FuzzOptions options;
  options.base_seed = env_u64("CDC_FUZZ_BASE_SEED", 1);
  options.num_seeds = static_cast<std::uint32_t>(
      env_u64("CDC_FUZZ_SEEDS", default_seeds));
  options.classes = {fuzz::kWindowFaultClasses.begin(),
                     fuzz::kWindowFaultClasses.end()};
  return options;
}

TEST(fuzz_window, TaskfarmWindowSlicesMatchFullReplay) {
  // 16 seeds cycle the transport adversary through every class at least
  // twice (the class is seed % 6 inside ScheduleFuzzer::window_case).
  const fuzz::FuzzOptions options = window_options(16);
  fuzz::ScheduleFuzzer fuzzer(fuzz::taskfarm_workload(), options);
  const fuzz::FuzzReport report = fuzzer.run();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.cases_run, options.num_seeds);
  EXPECT_EQ(report.cases_passed, report.cases_run);
  EXPECT_GT(report.events_checked, 0u);
}

TEST(fuzz_window, McbPollingIdiomWindowSlicesMatchFullReplay) {
  // Unmatched-test runs count as window events too; fewer seeds — MCB
  // cases are an order of magnitude heavier.
  const fuzz::FuzzOptions options = window_options(6);
  fuzz::ScheduleFuzzer fuzzer(fuzz::mcb_workload(), options);
  const fuzz::FuzzReport report = fuzzer.run();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.cases_passed, report.cases_run);
  EXPECT_GT(report.events_checked, 0u);
}

TEST(fuzz_window, WindowCaseIsBitReproducible) {
  // The reproduction contract: the same (workload, window, seed) triple
  // reaches an identical verdict with identical statistics.
  const std::uint64_t seed = env_u64("CDC_FUZZ_BASE_SEED", 1) + 5;
  fuzz::FuzzReport a;
  fuzz::FuzzReport b;
  for (fuzz::FuzzReport* report : {&a, &b}) {
    fuzz::ScheduleFuzzer fuzzer(fuzz::taskfarm_workload());
    EXPECT_EQ(fuzzer.run_case(fuzz::FaultClass::kWindow, seed, report),
              std::nullopt);
  }
  EXPECT_EQ(a.events_checked, b.events_checked);
  EXPECT_GT(a.events_checked, 0u);
}

}  // namespace
}  // namespace cdc
