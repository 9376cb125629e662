#include "minimpi/schedule_fuzzer.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "apps/jacobi.h"
#include "apps/mcb.h"
#include "apps/taskfarm.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "store/container_reader.h"
#include "store/container_store.h"
#include "support/check.h"
#include "support/file.h"
#include "support/rng.h"
#include "tool/crash_store.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace cdc::fuzz {

namespace {

/// Seed-cycled worker axis: every record and replay run of a case uses
/// 1, 2 or 4 workers, so every fuzz class continuously exercises the
/// multi-worker window engine on both sides. The run itself does not
/// depend on the worker count; what the axis adds is the concurrent
/// execution of the tool hooks. Recorder flushes always run on the
/// coordinator in window order, so a recorder-crash point means the same
/// frame at every worker count.
int workers_for(std::uint64_t seed) noexcept {
  static constexpr std::array<int, 3> kWorkerAxis = {1, 2, 4};
  return kWorkerAxis[seed % kWorkerAxis.size()];
}

std::uint64_t fired_faults(const minimpi::FaultStats& stats) noexcept {
  return stats.delay_spikes + stats.burst_messages +
         stats.duplicates_injected + stats.stalls;
}

std::string format_double_bits(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::filesystem::path scratch_root(const std::string& scratch_dir) {
  return scratch_dir.empty() ? std::filesystem::temp_directory_path()
                             : std::filesystem::path(scratch_dir);
}

void remove_quietly(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

/// The prefix check of a partial-record replay: the gated prefix must
/// match the recording, and frames present but nothing gated and no
/// release is a dead replay.
std::string prefix_failure(const support::OracleReport& oracle,
                           const tool::Replayer& replayer) {
  if (!oracle.ok) return oracle.summary();
  if (oracle.events_compared == 0 && !replayer.released())
    return "the record was replayed but the replay gated nothing";
  return {};
}

}  // namespace

minimpi::FaultPlan plan_for(FaultClass cls, std::uint64_t seed) {
  minimpi::FaultPlan plan;
  plan.seed = seed;
  const bool all = cls == FaultClass::kAll;
  if (all || cls == FaultClass::kDelaySpike)
    plan.delay_spike_probability = 0.05;
  if (all || cls == FaultClass::kReorderBurst)
    plan.reorder_burst_probability = 0.02;
  if (all || cls == FaultClass::kDuplicate)
    plan.duplicate_probability = 0.05;
  if (all || cls == FaultClass::kRankStall) plan.stall_probability = 0.01;
  return plan;
}

FuzzWorkload taskfarm_workload(int num_ranks, int tasks) {
  apps::TaskFarmConfig config;
  config.tasks = tasks;
  FuzzWorkload workload;
  workload.name = "taskfarm" + std::to_string(num_ranks) + "x" +
                  std::to_string(tasks);
  workload.num_ranks = num_ranks;
  workload.kill_tolerant = true;  // the farm shrinks around dead workers
  workload.run = [config](minimpi::Simulator& sim) {
    return apps::run_taskfarm(sim, config).accumulated;
  };
  return workload;
}

FuzzWorkload mcb_workload(int grid_x, int grid_y, int particles_per_rank) {
  apps::McbConfig config;
  config.grid_x = grid_x;
  config.grid_y = grid_y;
  config.particles_per_rank = particles_per_rank;
  config.segments_per_particle = 6;
  config.tracks_per_poll = 8;
  FuzzWorkload workload;
  workload.name = "mcb" + std::to_string(grid_x) + "x" +
                  std::to_string(grid_y);
  workload.num_ranks = grid_x * grid_y;
  workload.run = [config](minimpi::Simulator& sim) {
    return apps::run_mcb(sim, config).global_tally;
  };
  return workload;
}

FuzzWorkload jacobi_workload(int grid_x, int grid_y, int iterations) {
  apps::JacobiConfig config;
  config.grid_x = grid_x;
  config.grid_y = grid_y;
  config.local_nx = 6;
  config.local_ny = 6;
  config.iterations = iterations;
  FuzzWorkload workload;
  workload.name = "jacobi" + std::to_string(grid_x) + "x" +
                  std::to_string(grid_y);
  workload.num_ranks = grid_x * grid_y;
  workload.run = [config](minimpi::Simulator& sim) {
    return apps::run_jacobi(sim, config).residual;
  };
  return workload;
}

ProbedRun run_probed(const FuzzWorkload& workload, minimpi::ToolHooks* tool,
                     const minimpi::Simulator::Config& config) {
  support::OrderProbe probe(tool);
  minimpi::Simulator sim(config, &probe);
  ProbedRun run;
  run.value = workload.run(sim);
  run.trace = probe.trace();
  run.events = probe.total_events();
  run.stats = sim.stats();
  run.fault_stats = sim.fault_stats();
  return run;
}

minimpi::Simulator::Config sim_config(int num_ranks, std::uint64_t noise_seed,
                                      const minimpi::FaultPlan& faults,
                                      int workers) {
  minimpi::Simulator::Config config;
  config.num_ranks = num_ranks;
  config.noise_seed = noise_seed;
  config.faults = faults;
  config.workers = workers;
  return config;
}

std::map<runtime::StreamKey, std::uint64_t> prefix_lengths(
    const tool::Replayer& replayer) {
  std::map<runtime::StreamKey, std::uint64_t> lengths;
  for (const auto& [key, stats] : replayer.stream_totals())
    lengths[key] = stats.replayed_events + stats.replayed_unmatched;
  return lengths;
}

std::uint64_t case_seed(std::uint64_t seed, std::uint64_t slot) noexcept {
  return support::splitmix64(seed * 4 + slot + support::kGoldenGamma);
}

KillCheck check_rank_kill(const FuzzWorkload& workload, std::uint64_t seed,
                          double kill_fraction,
                          const std::string& container_path,
                          std::size_t chunk_target, int workers) {
  CDC_CHECK_MSG(workload.kill_tolerant,
                "a rank kill requires a kill-tolerant workload");
  const int n = workload.num_ranks;
  const std::uint64_t noise = case_seed(seed, kRecordNoise);

  // Aim the kill inside the run: the fault-free run with the same noise
  // gives its virtual span.
  const double span =
      run_probed(workload, nullptr, sim_config(n, noise, {}, workers))
          .stats.end_time;
  minimpi::FaultPlan plan;
  plan.seed = case_seed(seed, kRecordFaults);
  plan.kills.push_back(minimpi::RankKill{
      1 + static_cast<minimpi::Rank>(plan.seed %
                                     static_cast<std::uint64_t>(n - 1)),
      span * kill_fraction});

  // The recorder survives the process failure and seals: the survivors'
  // streams are complete, the victim's end at its death.
  KillCheck check;
  {
    store::ContainerStore container(container_path);
    tool::Recorder recorder(n, &container, {.chunk_target = chunk_target});
    check.recorded =
        run_probed(workload, &recorder, sim_config(n, noise, plan, workers));
    recorder.finalize();
    container.seal();
  }

  // The degradation is semantic — the victim's streams just end early — so
  // the container itself must be frame-complete.
  check.gaps = tool::inspect_gaps(container_path);
  if (!check.gaps.container_sealed || check.gaps.frame_coverage() < 1.0) {
    check.failure = "sealed post-kill container is frame-damaged: " +
                    (check.gaps.container_errors.empty()
                         ? std::string("coverage < 1")
                         : check.gaps.container_errors.front());
  } else {
    // Degraded replay: a fault-free run gated by the truncated record;
    // once the victim's streams run dry the replayer releases survivors
    // to passthrough, and the oracle checks the gated prefix.
    const auto store = store::ContainerStore::open(container_path);
    tool::Replayer replayer(
        n, store.get(), {.chunk_target = chunk_target, .partial_record = true});
    const ProbedRun replayed = run_probed(
        workload, &replayer,
        sim_config(n, case_seed(seed, kReplayNoise), {}, workers));
    check.oracle = support::check_prefix(check.recorded.trace,
                                         replayed.trace,
                                         prefix_lengths(replayer));
    check.failure = prefix_failure(check.oracle, replayer);
  }
  remove_quietly(container_path);
  return check;
}

IoFaultCheck check_io_faults(const FuzzWorkload& workload,
                             std::uint64_t seed,
                             const store::IoFaultPlan& plan,
                             std::size_t chunk_target, int workers) {
  const int n = workload.num_ranks;
  const tool::ToolOptions options{.chunk_target = chunk_target};
  const minimpi::Simulator::Config config =
      sim_config(n, case_seed(seed, kRecordNoise), {}, workers);
  IoFaultCheck check;

  // Reference: the same seeded run recorded with no storage faults.
  runtime::MemoryStore clean;
  tool::Recorder reference(n, &clean, options);
  const ProbedRun recorded = run_probed(workload, &reference, config);
  reference.finalize();

  // The same run again, with the plan's I/O faults injected between the
  // frame sink and the store — every one must be absorbed by the
  // bounded-backoff retries, leaving the record bit-identical.
  runtime::MemoryStore faulted;
  store::IoFaultStore faulty(&faulted, plan);
  store::RetryPolicy policy;
  policy.jitter_seed = case_seed(seed, kSchedule);
  store::RetryingStore retrying(&faulty, policy);
  tool::Recorder recorder(n, &retrying, options);
  (void)run_probed(workload, &recorder, config);
  recorder.finalize();
  check.faults = faulty.stats();
  check.retries = retrying.stats();
  check.backoff_bound_ms = policy.max_total_backoff_ms() *
                           static_cast<double>(check.faults.appends);
  check.bit_identical = clean.keys() == faulted.keys();
  for (const runtime::StreamKey& key : clean.keys())
    check.bit_identical =
        check.bit_identical && clean.read(key) == faulted.read(key);

  // And the faulted record replays with full equivalence.
  tool::Replayer replayer(n, &faulted, options);
  const ProbedRun replayed = run_probed(
      workload, &replayer,
      sim_config(n, case_seed(seed, kReplayNoise), {}, workers));
  check.oracle = support::check_equivalence(recorded.trace, replayed.trace);
  check.result_matches = recorded.value == replayed.value;

  if (check.retries.quarantined != 0)
    check.failure = "transient faults quarantined " +
                    std::to_string(check.retries.quarantined) + " frame(s)";
  else if (recorder.checkpoint_failures() != 0)
    check.failure = "checkpoint sync failed through the retrying store";
  else if (check.retries.backoff_ms_total > check.backoff_bound_ms)
    check.failure = "backoff exceeded its bound: " +
                    std::to_string(check.retries.backoff_ms_total) +
                    "ms > " + std::to_string(check.backoff_bound_ms) + "ms";
  else if (!check.bit_identical)
    check.failure = "faulted record is not bit-identical to the clean one";
  else if (!check.oracle.ok)
    check.failure = check.oracle.summary();
  else if (!check.result_matches)
    check.failure = "order-sensitive result diverged after retried faults";
  return check;
}

std::string FuzzFailure::repro() const {
  return "workload=" + workload + " class=" + fault_class_name(cls) +
         " seed=" + std::to_string(seed);
}

std::string FuzzReport::summary() const {
  std::string out = "fuzz: " + std::to_string(cases_passed) + "/" +
                    std::to_string(cases_run) + " cases passed, " +
                    std::to_string(events_checked) + " events checked, " +
                    std::to_string(faults_injected) + " faults injected";
  for (const FuzzFailure& f : failures)
    out += "\n  FAIL " + f.repro() + ": " + f.detail;
  return out;
}

ScheduleFuzzer::ScheduleFuzzer(FuzzWorkload workload, FuzzOptions options)
    : workload_(std::move(workload)), options_(std::move(options)) {
  CDC_CHECK(workload_.run != nullptr && workload_.num_ranks >= 2);
}

FuzzReport ScheduleFuzzer::run() {
  FuzzReport report;
  for (const FaultClass cls : options_.classes)
    for (std::uint32_t i = 0; i < options_.num_seeds; ++i)
      if (auto failure = run_case(cls, options_.base_seed + i, &report))
        report.failures.push_back(std::move(*failure));
  return report;
}

std::optional<FuzzFailure> ScheduleFuzzer::run_case(FaultClass cls,
                                                    std::uint64_t seed,
                                                    FuzzReport* report) {
  FuzzReport scratch;
  FuzzReport& counts = report != nullptr ? *report : scratch;
  ++counts.cases_run;
  std::string detail;
  switch (cls) {
    case FaultClass::kRecorderCrash: detail = crash_case(seed, counts); break;
    case FaultClass::kRankKill: detail = kill_case(seed, counts); break;
    case FaultClass::kIoFault: detail = io_fault_case(seed, counts); break;
    case FaultClass::kWindow: detail = window_case(seed, counts); break;
    default: detail = transport_case(cls, seed, counts); break;
  }
  if (detail.empty()) {
    ++counts.cases_passed;
    return std::nullopt;
  }
  return FuzzFailure{workload_.name, cls, seed, std::move(detail)};
}

std::string ScheduleFuzzer::transport_case(FaultClass cls,
                                           std::uint64_t seed,
                                           FuzzReport& report) {
  const int n = workload_.num_ranks;
  const int workers = workers_for(seed);
  const tool::ToolOptions options{.chunk_target = options_.chunk_target};

  // Record under the case's fault schedule.
  runtime::MemoryStore store;
  tool::Recorder recorder(n, &store, options);
  const ProbedRun recorded = run_probed(
      workload_, &recorder,
      sim_config(n, case_seed(seed, kRecordNoise),
                 plan_for(cls, case_seed(seed, kRecordFaults)), workers));
  recorder.finalize();

  // Replay under a different noise seed AND a different fault schedule of
  // the same class: replay must pin the receive order regardless of what
  // the replay run's own transport does.
  tool::Replayer replayer(n, &store, options);
  const ProbedRun replayed = run_probed(
      workload_, &replayer,
      sim_config(n, case_seed(seed, kReplayNoise),
                 plan_for(cls, case_seed(seed, kReplayFaults)), workers));
  report.faults_injected +=
      fired_faults(recorded.fault_stats) + fired_faults(replayed.fault_stats);

  const support::OracleReport oracle =
      support::check_equivalence(recorded.trace, replayed.trace);
  report.events_checked += oracle.events_compared;
  if (!oracle.ok) return oracle.summary();
  if (recorded.value != replayed.value)
    return "order-sensitive result diverged: recorded " +
           format_double_bits(recorded.value) + " != replayed " +
           format_double_bits(replayed.value);
  if (!replayer.fully_replayed())
    return "replay finished with unconsumed record";
  return {};
}

std::string ScheduleFuzzer::scratch_path(const char* tag,
                                         std::uint64_t seed) const {
  const std::string file = "cdc_fuzz_" + workload_.name + "_" + tag + "_" +
                           std::to_string(seed) + "_" +
                           std::to_string(::getpid()) + ".cdc";
  return (scratch_root(options_.scratch_dir) / file).string();
}

std::string ScheduleFuzzer::crash_case(std::uint64_t seed,
                                       FuzzReport& report) {
  const int n = workload_.num_ranks;
  const int workers = workers_for(seed);
  const std::string container_path = scratch_path("crash", seed);
  const std::string repacked_path = scratch_path("repacked", seed);

  // Record into an on-disk container; the recorder "crashes" after a
  // seed-dependent number of frame appends and the container is abandoned
  // unsealed — a killed process's on-disk state.
  store::ContainerStore container(container_path);
  tool::CrashingStore crashing(&container, /*appends_before_crash=*/seed % 32);
  tool::Recorder recorder(n, &crashing,
                          {.chunk_target = options_.chunk_target});
  const ProbedRun recorded = run_probed(
      workload_, &recorder,
      sim_config(n, case_seed(seed, kRecordNoise), {}, workers));
  recorder.finalize();
  container.abandon();

  // Salvage: repack the replayable frames into a fresh sealed container,
  // open it and prefix-replay it.
  const store::RepackResult repack =
      store::repack_container(container_path, repacked_path);
  std::string failure;
  if (!repack.ok) {
    // The store wrote the container's header, so any readable file
    // repacks, even one holding no frame.
    failure = "salvage failed with " +
              std::to_string(crashing.appends_forwarded()) +
              " frames persisted: " + repack.error;
  } else {
    const auto salvaged = store::ContainerStore::open(repacked_path);
    tool::Replayer replayer(n, salvaged.get(),
                            {.chunk_target = options_.chunk_target,
                             .partial_record = true});
    const ProbedRun replayed = run_probed(
        workload_, &replayer,
        sim_config(n, case_seed(seed, kReplayNoise), {}, workers));
    const support::OracleReport oracle = support::check_prefix(
        recorded.trace, replayed.trace, prefix_lengths(replayer));
    report.events_checked += oracle.events_compared;
    // An empty verified prefix is legitimate under a tiny crash budget:
    // the first MF call can hit a stream with no salvaged chunks, which
    // releases the whole replay to passthrough before anything is gated.
    if (repack.frames_kept > 0 || !oracle.ok)
      failure = prefix_failure(oracle, replayer);
  }
  remove_quietly(container_path);
  remove_quietly(repacked_path);
  return failure;
}

std::string ScheduleFuzzer::kill_case(std::uint64_t seed,
                                      FuzzReport& report) {
  // The kill lands between 10% and 90% of the run's span, never before
  // the first message or after the last.
  const double fraction =
      0.10 + 0.80 * static_cast<double>(case_seed(seed, kSchedule) % 1000) /
                 1000.0;
  const KillCheck check =
      check_rank_kill(workload_, seed, fraction, scratch_path("kill", seed),
                      options_.chunk_target, workers_for(seed));
  report.faults_injected += check.recorded.fault_stats.rank_kills;
  report.events_checked += check.oracle.events_compared;

  // The gap report is this case's CI artifact.
  if (!options_.gap_report_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.gap_report_dir, ec);
    const std::string name = "gaps_" + workload_.name + "_" +
                             std::to_string(seed) + ".json";
    obs::JsonWriter::write_file(
        (std::filesystem::path(options_.gap_report_dir) / name).string(),
        check.gaps.to_json());
  }
  return check.failure;
}

std::string ScheduleFuzzer::io_fault_case(std::uint64_t seed,
                                          FuzzReport& report) {
  store::IoFaultPlan plan;
  plan.seed = case_seed(seed, kRecordFaults);
  plan.eio_every_n = 7;
  plan.eio_probability = 0.25;
  plan.failures_per_fault =
      1 + static_cast<std::uint32_t>(case_seed(seed, kReplayFaults) % 3);
  plan.short_write_probability = 0.5;
  plan.fsync_failure_every_n = 2;
  const IoFaultCheck check = check_io_faults(
      workload_, seed, plan, options_.chunk_target, workers_for(seed));
  report.faults_injected +=
      check.faults.transient_throws + check.faults.fsync_failures;
  report.events_checked += check.oracle.events_compared;
  return check.failure;
}

std::string ScheduleFuzzer::window_case(std::uint64_t seed,
                                        FuzzReport& report) {
  // The transport adversary cycles deterministically with the seed, so a
  // 16-seed sweep covers every transport class at least twice.
  static constexpr std::array<FaultClass, 6> kTransport = {
      FaultClass::kNone,      FaultClass::kDelaySpike,
      FaultClass::kReorderBurst, FaultClass::kDuplicate,
      FaultClass::kRankStall, FaultClass::kAll,
  };
  const FaultClass transport = kTransport[seed % kTransport.size()];
  const int n = workload_.num_ranks;
  const int workers = workers_for(seed);
  const tool::ToolOptions options{.chunk_target = options_.chunk_target};
  // A window case runs three schedules, so it takes the slots of case
  // seed 2 * seed: 1–4 for the record and the full replay, 5–6 for the
  // window, 7 and 9 for the windowed replay.
  const std::uint64_t slots = 2 * seed;
  const std::string container_path = scratch_path("window", seed);
  const auto finish = [&](std::string detail) {
    remove_quietly(container_path);
    return detail;
  };

  // Record under the case's fault schedule into a sealed, epoch-indexed
  // container on disk.
  {
    store::ContainerStore container(container_path);
    tool::Recorder recorder(n, &container, options);
    const ProbedRun recorded = run_probed(
        workload_, &recorder,
        sim_config(n, case_seed(slots, kRecordNoise),
                   plan_for(transport, case_seed(slots, kRecordFaults)),
                   workers));
    recorder.finalize();
    container.seal();
    report.faults_injected += fired_faults(recorded.fault_stats);
  }

  const auto store = store::ContainerStore::open(container_path);
  if (store->reader() == nullptr || !store->reader()->epoch_index_ok())
    return finish("sealed container has no usable epoch index");

  // Full replay under a different schedule: the reference trace every
  // window slice is checked against.
  tool::Replayer full(n, store.get(), options);
  const ProbedRun full_run = run_probed(
      workload_, &full,
      sim_config(n, case_seed(slots, kReplayNoise),
                 plan_for(transport, case_seed(slots, kReplayFaults)),
                 workers));
  report.faults_injected += fired_faults(full_run.fault_stats);
  if (!full.fully_replayed())
    return finish("full replay finished with unconsumed record");

  // A seed-derived epoch window inside the record's deepest stream.
  std::uint64_t epochs = 0;
  for (const auto& [key, stats] : full.stream_totals())
    epochs = std::max(epochs, stats.chunks);
  if (epochs == 0) return finish("record holds no epochs to window");
  const std::uint64_t lo = case_seed(slots, 5) % epochs;
  const std::uint64_t hi = lo + 1 + case_seed(slots, 6) % (epochs - lo);

  // Windowed replay under a third schedule. The stream bytes must come
  // from the epoch-index seek — a sequential-read fallback is a failure.
  obs::Counter& fallbacks = obs::counter("store.container.epoch_fallbacks");
  const std::uint64_t fallbacks_before = fallbacks.value();
  tool::Replayer window(n, store.get(), options);
  window.replay_window(lo, hi);
  const ProbedRun window_run = run_probed(
      workload_, &window,
      sim_config(n, case_seed(slots, 7),
                 plan_for(transport, case_seed(slots, 9)), workers));
  report.faults_injected += fired_faults(window_run.fault_stats);
  if (fallbacks.value() != fallbacks_before)
    return finish("windowed replay fell back to a sequential read");

  // Each stream's verified [begin, end) must match the same events of the
  // full replay. Non-vacuity: the stream that triggered the release covered
  // its whole window, so a window over a non-empty record verifies real
  // events, and check_slices fails one that verifies none.
  std::map<runtime::StreamKey, support::EventSpan> slices;
  for (const auto& [key, slice] : window.window_slices())
    slices[key] = {slice.begin, slice.end};
  const support::OracleReport oracle =
      support::check_slices(full_run.trace, window_run.trace, slices);
  report.events_checked += oracle.events_compared;
  if (!oracle.ok)
    return finish("window [" + std::to_string(lo) + ", " + std::to_string(hi) +
                "): " + oracle.summary());
  return finish({});
}

// --- Salvage sweeps: a crash at every frame boundary, damage to every frame

std::string SweepReport::summary() const {
  std::string out = std::to_string(prefixes_verified) + "/" +
                    std::to_string(cases_tested) + " cases verified (" +
                    std::to_string(frames_recorded) + " frames, " +
                    std::to_string(events_checked) + " events checked)";
  for (const std::string& f : failures) out += "\n  FAIL " + f;
  return out;
}

SweepReport salvage_sweep(const FuzzWorkload& workload, std::uint64_t seed,
                          SweepDamage damage, const std::string& scratch_dir,
                          std::size_t chunk_target) {
  SweepReport report;
  const auto root = scratch_root(scratch_dir);
  const std::string stem = "cdc_sweep_" + workload.name + "_" +
                           std::to_string(seed) + "_" +
                           std::to_string(::getpid());
  const std::string sealed_path = (root / (stem + ".cdc")).string();
  const std::string hurt_path = (root / (stem + "_hurt.cdc")).string();
  const std::string repacked_path = (root / (stem + "_repacked.cdc")).string();

  // One clean recording, sealed — the reference run and the byte source
  // for every case.
  const int n = workload.num_ranks;
  ProbedRun recorded;
  {
    store::ContainerStore container(sealed_path);
    tool::Recorder recorder(n, &container, {.chunk_target = chunk_target});
    recorded = run_probed(
        workload, &recorder,
        sim_config(n, case_seed(seed, kRecordNoise), {}, workers_for(seed)));
    recorder.finalize();
    container.seal();
  }

  // Per case: the bytes of the damaged copy, the byte it flips, and how
  // many frames its salvage keeps.
  struct Case {
    std::uint64_t size = 0;
    std::optional<std::uint64_t> flip;
    std::uint64_t kept = 0;
  };
  std::vector<Case> cases;
  std::vector<std::uint8_t> bytes;
  {
    const auto reader = store::ContainerReader::open(sealed_path);
    CDC_CHECK_MSG(reader != nullptr && reader->index_ok(),
                  "sweep recording produced an unreadable container");
    const auto frames = reader->scan_good_frames();
    report.frames_recorded = frames.size();
    bytes = support::read_file(sealed_path).value_or(bytes);
    CDC_CHECK(bytes.size() == reader->file_bytes());

    if (damage == SweepDamage::kTruncate) {
      // Truncating at a frame drops it and every later frame; the last
      // case keeps every frame but no footer.
      for (std::size_t f = 0; f < frames.size(); ++f)
        cases.push_back({frames[f].offset, std::nullopt, f});
      cases.push_back({reader->data_end(), std::nullopt, frames.size()});
    } else {
      // The frame's last payload byte (the index stays intact): its
      // stream loses this frame and every later one.
      for (const auto& frame : frames) {
        CDC_CHECK(!frame.payload.empty());
        const auto lost = std::count_if(
            frames.begin(), frames.end(), [&](const auto& other) {
              return other.key == frame.key && other.seq >= frame.seq;
            });
        cases.push_back({bytes.size(), frame.offset + frame.frame_size - 5,
                         frames.size() - static_cast<std::uint64_t>(lost)});
      }
    }
  }

  for (std::size_t c = 0; c < cases.size(); ++c) {
    ++report.cases_tested;
    const Case& hurt = cases[c];
    const auto fail = [&](const std::string& what) {
      report.failures.push_back(
          "case " + std::to_string(c) + " (" +
          (hurt.flip ? "flipped byte " + std::to_string(*hurt.flip)
                     : "truncated at " + std::to_string(hurt.size)) +
          "): " + what);
    };
    if (hurt.flip) bytes[*hurt.flip] ^= 0xFF;
    {
      std::ofstream out(hurt_path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(hurt.size));
      CDC_CHECK(out.good());
    }
    if (hurt.flip) bytes[*hurt.flip] ^= 0xFF;

    const store::RepackResult repack =
        store::repack_container(hurt_path, repacked_path);
    if (!repack.ok) {
      fail("salvage failed: " + repack.error);
      continue;
    }
    if (repack.frames_kept != hurt.kept) {
      fail("expected " + std::to_string(hurt.kept) + " salvaged frames, got " +
           std::to_string(repack.frames_kept));
      continue;
    }

    // Every surviving byte re-verifies by CRC, and each stream holds
    // exactly the prefix inspect_gaps reports for the damaged copy.
    const auto reader = store::ContainerReader::open(repacked_path);
    if (reader == nullptr || !reader->verify().ok) {
      fail("repacked container failed verification");
      continue;
    }
    const tool::GapReport gaps = tool::inspect_gaps(hurt_path);
    bool same_prefixes = gaps.frames_intact_total() == repack.frames_kept;
    for (const tool::StreamGap& gap : gaps.streams) {
      const store::StreamIndexEntry* entry = reader->find(gap.key);
      same_prefixes = same_prefixes &&
                      (entry != nullptr ? entry->frame_offsets.size() : 0) ==
                          gap.frames_intact;
    }
    if (!same_prefixes) {
      fail("repacked streams differ from the prefixes inspect_gaps reports");
      continue;
    }

    const auto salvaged = store::ContainerStore::open(repacked_path);
    tool::Replayer replayer(
        n, salvaged.get(),
        {.chunk_target = chunk_target, .partial_record = true});
    const ProbedRun replayed = run_probed(
        workload, &replayer,
        sim_config(n, case_seed(seed, kReplayNoise), {}, workers_for(seed)));
    const support::OracleReport oracle = support::check_prefix(
        recorded.trace, replayed.trace, prefix_lengths(replayer));
    report.events_checked += oracle.events_compared;
    if (!oracle.ok) {
      fail(oracle.summary());
      continue;
    }
    ++report.prefixes_verified;
  }

  remove_quietly(sealed_path);
  remove_quietly(hurt_path);
  remove_quietly(repacked_path);
  return report;
}

}  // namespace cdc::fuzz
