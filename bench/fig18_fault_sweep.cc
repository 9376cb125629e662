// Fault sweep (companion to the §6 robustness claims): the schedule
// fuzzer at benchmark volume. Three sections:
//
//   1. Fuzz matrix — N seeds per fault class through record→store→replay,
//      each checked by the replay-equivalence oracle. Reports pass rate,
//      oracle event comparisons, and faults injected per class.
//   2. Fault overhead — virtual completion-time inflation of the recorded
//      task-farm run under each fault class (same workload, same noise
//      seed; the faults are the only difference), plus recorder bytes.
//   3. Crash sweep — a sealed container truncated at every frame
//      boundary; each survivor must repack CRC-clean and prefix-replay.
//
// Machine-readable results land in BENCH_fault.json (CI uploads it as an
// artifact). Scale knobs: CDC_FUZZ_SEEDS (default 64), CDC_SEED /
// CDC_FUZZ_BASE_SEED (default 1), CDC_FULL=1 doubles the per-class seed
// count and workload size.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "minimpi/fault.h"
#include "minimpi/schedule_fuzzer.h"
#include "runtime/storage.h"
#include "tool/recorder.h"

namespace {

using namespace cdc;
using bench::Clock;
using bench::seconds_since;

struct ClassRow {
  fuzz::FaultClass cls = fuzz::FaultClass::kNone;
  fuzz::FuzzReport report;
  double wall_seconds = 0;
};

struct OverheadRow {
  fuzz::FaultClass cls = fuzz::FaultClass::kNone;
  double virtual_seconds = 0;   ///< simulated completion time
  std::uint64_t faults = 0;     ///< injected message/stall faults
  std::uint64_t record_bytes = 0;
};

}  // namespace

int main() {
  const int seeds_default = bench::full_scale() ? 128 : 64;
  const std::uint32_t num_seeds = static_cast<std::uint32_t>(
      bench::env_int("CDC_FUZZ_SEEDS", seeds_default));
  const std::uint64_t base_seed = static_cast<std::uint64_t>(
      bench::env_int("CDC_FUZZ_BASE_SEED", bench::env_int("CDC_SEED", 1)));
  const int tasks = bench::full_scale() ? 400 : 160;
  const int ranks = bench::env_int("CDC_RANKS", 6);

  bench::print_machine_banner(
      "Fault sweep: schedule fuzzing + crash boundaries (robustness)",
      ranks);
  std::printf("seeds/class : %u (base seed %llu)\n", num_seeds,
              static_cast<unsigned long long>(base_seed));
  std::printf("workload    : task farm, %d ranks x %d tasks\n\n", ranks,
              tasks);

  // --- 1. fuzz matrix ------------------------------------------------------
  const fuzz::FuzzWorkload workload = fuzz::taskfarm_workload(ranks, tasks);
  std::vector<ClassRow> matrix;
  for (const fuzz::FaultClass cls : fuzz::kAllFaultClasses) {
    fuzz::FuzzOptions options;
    options.base_seed = base_seed;
    options.num_seeds = num_seeds;
    options.classes = {cls};
    ClassRow row;
    row.cls = cls;
    const auto start = Clock::now();
    row.report = fuzz::ScheduleFuzzer(workload, options).run();
    row.wall_seconds = seconds_since(start, "bench.fig18.class_ns");
    matrix.push_back(row);
    std::fprintf(stderr, "  [fuzzed %-14s %llu/%llu]\n",
                 fuzz::fault_class_name(cls),
                 static_cast<unsigned long long>(row.report.cases_passed),
                 static_cast<unsigned long long>(row.report.cases_run));
  }

  std::printf("%-15s %8s %8s %12s %10s %8s\n", "fault class", "cases",
              "passed", "events_ok", "faults", "wall_s");
  for (const ClassRow& row : matrix) {
    std::printf("%-15s %8llu %8llu %12llu %10llu %8.2f\n",
                fuzz::fault_class_name(row.cls),
                static_cast<unsigned long long>(row.report.cases_run),
                static_cast<unsigned long long>(row.report.cases_passed),
                static_cast<unsigned long long>(row.report.events_checked),
                static_cast<unsigned long long>(row.report.faults_injected),
                row.wall_seconds);
    for (const auto& failure : row.report.failures)
      std::printf("    FAIL %s\n", failure.repro().c_str());
  }

  // --- 2. fault overhead ---------------------------------------------------
  // Same workload and noise seed per row; only the fault plan changes, so
  // the virtual-time delta against the `none` row is the fault cost.
  std::vector<OverheadRow> overhead;
  for (const fuzz::FaultClass cls : fuzz::kAllFaultClasses) {
    if (cls == fuzz::FaultClass::kRecorderCrash) continue;  // not a
    // transport fault: its adversary is storage loss, timed in section 3.
    OverheadRow row;
    row.cls = cls;
    runtime::MemoryStore store;
    tool::Recorder recorder(workload.num_ranks, &store);
    minimpi::Simulator::Config config = bench::sim_config(workload.num_ranks,
                                                          base_seed);
    config.faults = fuzz::plan_for(cls, base_seed);
    minimpi::Simulator sim(config, &recorder);
    workload.run(sim);
    recorder.finalize();
    const minimpi::FaultStats& stats = sim.fault_stats();
    row.virtual_seconds = sim.now();
    row.faults = stats.delay_spikes + stats.burst_messages +
                 stats.duplicates_injected + stats.stalls;
    row.record_bytes = store.total_bytes();
    overhead.push_back(row);
  }
  const double baseline_time = overhead.front().virtual_seconds;
  std::printf("\n%-15s %14s %10s %10s %12s\n", "fault class", "virtual_s",
              "overhead", "faults", "record_B");
  for (const OverheadRow& row : overhead)
    std::printf("%-15s %14.6f %9.1f%% %10llu %12llu\n",
                fuzz::fault_class_name(row.cls), row.virtual_seconds,
                100.0 * (row.virtual_seconds / baseline_time - 1.0),
                static_cast<unsigned long long>(row.faults),
                static_cast<unsigned long long>(row.record_bytes));

  // --- 3. crash sweep ------------------------------------------------------
  const auto sweep_start = Clock::now();
  const fuzz::SweepReport sweep =
      fuzz::salvage_sweep(workload, base_seed, fuzz::SweepDamage::kTruncate);
  const double sweep_seconds =
      seconds_since(sweep_start, "bench.fig18.crash_sweep_ns");
  std::printf("\ncrash sweep : %s (%.2f s)\n", sweep.summary().c_str(),
              sweep_seconds);
  for (const std::string& failure : sweep.failures)
    std::printf("    FAIL %s\n", failure.c_str());

  bool all_ok = sweep.ok();
  for (const ClassRow& row : matrix) all_ok = all_ok && row.report.ok();
  std::printf("\nverdict     : %s\n", all_ok ? "all cases oracle-clean"
                                             : "FAILURES (see above)");

  // --- machine-readable (same keys as the fprintf original) ---------------
  const char* json_path = "BENCH_fault.json";
  obs::JsonWriter w;
  w.begin_object();
  w.field("bench", "fig18_fault_sweep");
  w.field("ranks", ranks);
  w.field("tasks", tasks);
  w.field("base_seed", base_seed);
  w.field("seeds_per_class", num_seeds);
  w.key("classes").begin_array();
  for (const ClassRow& row : matrix) {
    w.begin_object();
    w.field("class", fuzz::fault_class_name(row.cls));
    w.field("cases", row.report.cases_run);
    w.field("passed", row.report.cases_passed);
    w.field("events_checked", row.report.events_checked);
    w.field("faults_injected", row.report.faults_injected);
    w.field("wall_seconds", row.wall_seconds);
    w.end_object();
  }
  w.end_array();
  w.key("overhead").begin_array();
  for (const OverheadRow& row : overhead) {
    w.begin_object();
    w.field("class", fuzz::fault_class_name(row.cls));
    w.field("virtual_seconds", row.virtual_seconds);
    w.field("faults", row.faults);
    w.field("record_bytes", row.record_bytes);
    w.end_object();
  }
  w.end_array();
  w.key("crash_sweep").begin_object();
  w.field("frames", sweep.frames_recorded);
  w.field("boundaries", sweep.cases_tested);
  w.field("prefixes_verified", sweep.prefixes_verified);
  w.field("events_checked", sweep.events_checked);
  w.field("wall_seconds", sweep_seconds);
  w.end_object();
  w.field("ok", all_ok);
  w.end_object();
  if (bench::write_bench_json(json_path, std::move(w).take()))
    std::printf("json        : %s\n", json_path);

  return all_ok ? 0 : 1;
}
