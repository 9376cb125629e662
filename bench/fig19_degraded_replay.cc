// Degraded-replay sweep (companion to the survive-and-resume robustness
// claims): what fraction of a damaged record is still faithfully
// replayable. Three sections:
//
//   1. Kill-time sweep — a worker rank is killed at a fraction of the
//      run's virtual span; the task farm shrinks around it, the recorder
//      seals a complete container, and degraded replay must verify the
//      gated prefix against the recorded trace (zero aborts anywhere).
//   2. Transient I/O fault-rate sweep — seeded EIO/short-write/fsync
//      faults at increasing rates between the frame sink and the store;
//      bounded-backoff retries must leave the record bit-identical to the
//      fault-free one, with backoff inside its analytic bound.
//   3. Hard-fault quarantine — appends that never succeed are quarantined
//      to the `.cdcq` sidecar; the gap report must see the holes the
//      container cannot, and the longest-consistent-prefix replay must
//      verify against the oracle.
//
// Sections 1 and 2 are the schedule fuzzer's kRankKill and kIoFault
// checks (fuzz::check_rank_kill, fuzz::check_io_faults) at swept kill
// times and fault rates; every run is a fuzz::run_probed call on
// fuzz::taskfarm_workload with the fuzzer's seed layout, so a row sees
// the schedules of the equivalent fuzz case.
//
// Machine-readable results land in BENCH_degraded.json (CI uploads it as
// an artifact). Scale knobs: CDC_FUZZ_SEEDS (seeds per kill fraction),
// CDC_SEED, CDC_RANKS, CDC_FULL=1 for more seeds and a bigger farm.
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "apps/taskfarm.h"
#include "common.h"
#include "minimpi/schedule_fuzzer.h"
#include "store/container_store.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace {

using namespace cdc;
using bench::Clock;
using bench::seconds_since;

/// Small chunks, many frames: gives kills and hard faults sub-stream
/// granularity to damage.
constexpr std::size_t kChunkTarget = 8;

std::string scratch_path(const char* tag, std::uint64_t seed,
                         const char* ext) {
  return (std::filesystem::temp_directory_path() /
          ("cdc_fig19_" + std::to_string(::getpid()) + "_" + tag + "_" +
           std::to_string(seed) + ext))
      .string();
}

void remove_quietly(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

struct KillRow {
  double fraction = 0;          ///< kill time as a fraction of the run span
  std::uint32_t cases = 0;
  std::uint32_t passed = 0;
  std::uint32_t kills_fired = 0;
  std::uint64_t tasks_lost = 0;
  std::uint64_t events_recorded = 0;
  std::uint64_t events_verified = 0;  ///< oracle-compared prefix events
  double min_coverage = 1.0;          ///< worst per-seed verified fraction
  std::vector<std::string> failures;
};

struct TransientRow {
  double eio_probability = 0;
  fuzz::IoFaultCheck check;

  [[nodiscard]] std::uint64_t faults() const {
    return check.faults.transient_throws + check.faults.fsync_failures;
  }
  [[nodiscard]] bool replay_ok() const {
    return check.oracle.ok && check.result_matches;
  }
};

struct HardRow {
  std::uint32_t hard_every_n = 0;
  std::uint64_t frames_quarantined = 0;
  std::uint64_t bytes_quarantined = 0;
  std::uint64_t gap_streams = 0;
  double frame_coverage = 1.0;
  std::uint64_t events_recorded = 0;
  std::uint64_t events_verified = 0;
  bool replay_ok = false;
};

}  // namespace

int main() {
  const int ranks = bench::env_int("CDC_RANKS", 6);
  const int tasks = bench::full_scale() ? 400 : 120;
  const std::uint64_t base_seed = bench::default_seed();
  const std::uint32_t seeds_per_point = static_cast<std::uint32_t>(
      bench::env_int("CDC_FUZZ_SEEDS", bench::full_scale() ? 8 : 4));
  const fuzz::FuzzWorkload farm = fuzz::taskfarm_workload(ranks, tasks);

  bench::print_machine_banner(
      "Degraded replay: rank kills, I/O faults, quarantine (survive-and-"
      "resume)",
      ranks);
  std::printf("workload    : task farm, %d ranks x %d tasks\n", ranks, tasks);
  std::printf("seeds/point : %u (base seed %llu)\n\n", seeds_per_point,
              static_cast<unsigned long long>(base_seed));

  // --- 1. kill-time sweep --------------------------------------------------
  // The later the kill, the more of the victim's streams the record holds;
  // degraded replay must verify the gated prefix at every kill time (the
  // fuzzer's kRankKill check at a fixed kill fraction).
  const auto kill_start = Clock::now();
  std::vector<KillRow> kill_sweep;
  for (const double fraction : {0.12, 0.30, 0.50, 0.70, 0.88}) {
    KillRow row;
    row.fraction = fraction;
    for (std::uint32_t i = 0; i < seeds_per_point; ++i) {
      const std::uint64_t seed = base_seed + i;
      ++row.cases;
      const fuzz::KillCheck check = fuzz::check_rank_kill(
          farm, seed, fraction, scratch_path("kill", seed, ".cdc"),
          kChunkTarget);
      // The master folds one result per completed task, so the tasks the
      // farm wrote off are those whose result never reached it.
      const auto results =
          check.recorded.trace.find({0, apps::kFarmResultCallsite});
      row.tasks_lost += static_cast<std::uint64_t>(tasks) -
                        (results != check.recorded.trace.end()
                             ? results->second.size()
                             : 0);
      row.kills_fired +=
          static_cast<std::uint32_t>(check.recorded.fault_stats.rank_kills);
      row.events_recorded += check.recorded.events;
      row.events_verified += check.oracle.events_compared;
      row.min_coverage = std::min(
          row.min_coverage,
          check.recorded.events == 0
              ? 1.0
              : static_cast<double>(check.oracle.events_compared) /
                    static_cast<double>(check.recorded.events));
      if (check.failure.empty())
        ++row.passed;
      else
        row.failures.push_back("seed " + std::to_string(seed) + ": " +
                               check.failure);
    }
    kill_sweep.push_back(std::move(row));
  }
  const double kill_seconds = seconds_since(kill_start, "bench.fig19.kill_ns");

  std::printf("%-10s %6s %6s %6s %10s %12s %12s %10s\n", "kill@frac",
              "cases", "passed", "kills", "tasks_lost", "events_rec",
              "events_ver", "min_cov");
  for (const KillRow& row : kill_sweep) {
    std::printf("%-10.2f %6u %6u %6u %10llu %12llu %12llu %9.1f%%\n",
                row.fraction, row.cases, row.passed, row.kills_fired,
                static_cast<unsigned long long>(row.tasks_lost),
                static_cast<unsigned long long>(row.events_recorded),
                static_cast<unsigned long long>(row.events_verified),
                100.0 * row.min_coverage);
    for (const std::string& failure : row.failures)
      std::printf("    FAIL %s\n", failure.c_str());
  }

  // --- 2. transient I/O fault-rate sweep -----------------------------------
  // Retried faults must be invisible: same bytes as the fault-free record,
  // backoff inside its bound, nothing quarantined (the fuzzer's kIoFault
  // check at each fault rate).
  const auto io_start = Clock::now();
  std::vector<TransientRow> transient_sweep;
  for (const double rate : {0.0, 0.05, 0.15, 0.35}) {
    store::IoFaultPlan plan;
    plan.seed = fuzz::case_seed(base_seed, fuzz::kRecordFaults);
    plan.eio_probability = rate;
    plan.eio_every_n = rate > 0.0 ? 5 : 0;
    plan.failures_per_fault = 2;
    plan.short_write_probability = 0.4;
    plan.fsync_failure_every_n = rate > 0.0 ? 3 : 0;
    transient_sweep.push_back(
        {rate, fuzz::check_io_faults(farm, base_seed, plan, kChunkTarget)});
  }
  const double io_seconds = seconds_since(io_start, "bench.fig19.io_ns");

  std::printf("\n%-10s %8s %8s %8s %6s %10s %12s %10s %8s\n", "eio_p",
              "faults", "retries", "recover", "quar", "backoff_ms",
              "bound_ms", "identical", "replay");
  for (const TransientRow& row : transient_sweep)
    std::printf("%-10.2f %8llu %8llu %8llu %6llu %10.2f %12.1f %10s %8s\n",
                row.eio_probability,
                static_cast<unsigned long long>(row.faults()),
                static_cast<unsigned long long>(row.check.retries.retries),
                static_cast<unsigned long long>(row.check.retries.recoveries),
                static_cast<unsigned long long>(row.check.retries.quarantined),
                row.check.retries.backoff_ms_total,
                row.check.backoff_bound_ms,
                row.check.bit_identical ? "yes" : "NO",
                row.replay_ok() ? "ok" : "FAIL");

  // --- 3. hard-fault quarantine --------------------------------------------
  // Every Nth append fails permanently: the frame lands in the `.cdcq`
  // sidecar, the gap report finds the hole the container cannot show, and
  // replay of the longest consistent prefix still verifies.
  const auto hard_start = Clock::now();
  std::vector<HardRow> hard_rows;
  for (const std::uint32_t every_n : {6u, 25u}) {
    HardRow row;
    row.hard_every_n = every_n;
    const std::uint64_t seed = base_seed + every_n;
    const std::string container_path = scratch_path("hard", seed, ".cdc");
    const std::string quarantine_path = scratch_path("hard", seed, ".cdcq");

    tool::ToolOptions options{.chunk_target = kChunkTarget};
    fuzz::ProbedRun recorded;
    {
      store::ContainerStore container(container_path);
      store::IoFaultPlan fault_plan;
      fault_plan.seed = fuzz::case_seed(seed, fuzz::kRecordFaults);
      fault_plan.hard_every_n = every_n;
      store::IoFaultStore faulty(&container, fault_plan);
      store::RetryPolicy policy;
      policy.max_retries = 2;  // hard faults never clear; fail fast
      policy.jitter_seed = fuzz::case_seed(seed, fuzz::kSchedule);
      store::RetryingStore retrying(&faulty, policy, quarantine_path);
      tool::Recorder recorder(ranks, &retrying, options);
      recorded = fuzz::run_probed(
          farm, &recorder,
          fuzz::sim_config(ranks, fuzz::case_seed(seed, fuzz::kRecordNoise)));
      recorder.finalize();
      container.seal();
    }
    row.events_recorded = recorded.events;

    const auto record =
        tool::load_degraded(container_path, quarantine_path);
    row.frames_quarantined = record->report.quarantined_frames;
    row.bytes_quarantined = record->report.quarantined_bytes;
    row.frame_coverage = record->report.frame_coverage();
    for (const tool::StreamGap& gap : record->report.streams)
      if (gap.truncated) ++row.gap_streams;

    options.partial_record = true;
    tool::Replayer replayer(ranks, &record->store, options);
    const fuzz::ProbedRun replayed = fuzz::run_probed(
        farm, &replayer,
        fuzz::sim_config(ranks, fuzz::case_seed(seed, fuzz::kReplayNoise)));
    const support::OracleReport oracle = support::check_prefix(
        recorded.trace, replayed.trace, fuzz::prefix_lengths(replayer));
    row.events_verified = oracle.events_compared;
    row.replay_ok =
        oracle.ok &&
        // A quarantined frame must be visible as a gap…
        (row.frames_quarantined == 0 || row.frame_coverage < 1.0) &&
        // …and the replay must still make verified progress.
        (oracle.events_compared > 0 || replayer.released() ||
         row.events_recorded == 0);
    hard_rows.push_back(row);
    remove_quietly(container_path);
    remove_quietly(quarantine_path);
  }
  const double hard_seconds =
      seconds_since(hard_start, "bench.fig19.hard_ns");

  std::printf("\n%-12s %6s %10s %6s %10s %12s %12s %8s\n", "hard_every_n",
              "quar", "quar_B", "gaps", "coverage", "events_rec",
              "events_ver", "replay");
  for (const HardRow& row : hard_rows)
    std::printf("%-12u %6llu %10llu %6llu %9.1f%% %12llu %12llu %8s\n",
                row.hard_every_n,
                static_cast<unsigned long long>(row.frames_quarantined),
                static_cast<unsigned long long>(row.bytes_quarantined),
                static_cast<unsigned long long>(row.gap_streams),
                100.0 * row.frame_coverage,
                static_cast<unsigned long long>(row.events_recorded),
                static_cast<unsigned long long>(row.events_verified),
                row.replay_ok ? "ok" : "FAIL");

  bool all_ok = true;
  for (const KillRow& row : kill_sweep)
    all_ok = all_ok && row.passed == row.cases;
  for (const TransientRow& row : transient_sweep)
    all_ok = all_ok && row.check.failure.empty();
  for (const HardRow& row : hard_rows) all_ok = all_ok && row.replay_ok;
  std::printf("\nverdict     : %s\n",
              all_ok ? "all cases survived and verified"
                     : "FAILURES (see above)");

  // --- machine-readable ----------------------------------------------------
  const char* json_path = "BENCH_degraded.json";
  obs::JsonWriter w;
  w.begin_object();
  w.field("bench", "fig19_degraded_replay");
  w.field("ranks", ranks);
  w.field("tasks", tasks);
  w.field("base_seed", base_seed);
  w.field("seeds_per_point", seeds_per_point);
  w.key("kill_sweep").begin_array();
  for (const KillRow& row : kill_sweep) {
    w.begin_object();
    w.field("fraction", row.fraction);
    w.field("cases", row.cases);
    w.field("passed", row.passed);
    w.field("kills_fired", row.kills_fired);
    w.field("tasks_lost", row.tasks_lost);
    w.field("events_recorded", row.events_recorded);
    w.field("events_verified", row.events_verified);
    w.field("min_coverage", row.min_coverage);
    w.field("wall_seconds", kill_seconds);
    w.end_object();
  }
  w.end_array();
  w.key("transient_sweep").begin_array();
  for (const TransientRow& row : transient_sweep) {
    w.begin_object();
    w.field("eio_probability", row.eio_probability);
    w.field("faults", row.faults());
    w.field("retries", row.check.retries.retries);
    w.field("recoveries", row.check.retries.recoveries);
    w.field("quarantined", row.check.retries.quarantined);
    w.field("backoff_ms", row.check.retries.backoff_ms_total);
    w.field("backoff_bound_ms", row.check.backoff_bound_ms);
    w.field("bit_identical", row.check.bit_identical);
    w.field("replay_ok", row.replay_ok());
    w.field("events_checked", row.check.oracle.events_compared);
    w.field("wall_seconds", io_seconds);
    w.end_object();
  }
  w.end_array();
  w.key("hard_faults").begin_array();
  for (const HardRow& row : hard_rows) {
    w.begin_object();
    w.field("hard_every_n", row.hard_every_n);
    w.field("frames_quarantined", row.frames_quarantined);
    w.field("bytes_quarantined", row.bytes_quarantined);
    w.field("gap_streams", row.gap_streams);
    w.field("frame_coverage", row.frame_coverage);
    w.field("events_recorded", row.events_recorded);
    w.field("events_verified", row.events_verified);
    w.field("replay_ok", row.replay_ok);
    w.field("wall_seconds", hard_seconds);
    w.end_object();
  }
  w.end_array();
  w.field("ok", all_ok);
  w.end_object();
  if (bench::write_bench_json(json_path, std::move(w).take()))
    std::printf("json        : %s\n", json_path);

  return all_ok ? 0 : 1;
}
