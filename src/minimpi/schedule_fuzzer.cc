#include "minimpi/schedule_fuzzer.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>

#include "apps/mcb.h"
#include "apps/taskfarm.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "store/container_reader.h"
#include "store/container_store.h"
#include "store/resilient.h"
#include "support/check.h"
#include "support/oracle.h"
#include "tool/crash_store.h"
#include "tool/degraded.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace cdc::fuzz {

namespace {

/// splitmix64 finalizer: decorrelates the per-purpose seeds derived from
/// one case seed (noise vs. faults, record vs. replay).
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

minimpi::Simulator::Config sim_config(int num_ranks,
                                      std::uint64_t noise_seed,
                                      const minimpi::FaultPlan& faults,
                                      int workers) {
  minimpi::Simulator::Config config;
  config.num_ranks = num_ranks;
  config.noise_seed = noise_seed;
  config.faults = faults;
  config.workers = workers;
  return config;
}

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

tool::ToolOptions tool_options(std::size_t chunk_target,
                               bool partial_record = false) {
  tool::ToolOptions options;
  options.chunk_target = chunk_target;
  options.partial_record = partial_record;
  return options;
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

/// Prefix lengths for support::check_prefix, from replay progress: per
/// stream, the events gated by the (partial) record before the global
/// release.
std::map<runtime::StreamKey, std::uint64_t> prefix_lengths(
    const tool::Replayer& replayer) {
  std::map<runtime::StreamKey, std::uint64_t> lengths;
  for (const auto& [key, stats] : replayer.stream_totals())
    lengths[key] = stats.replayed_events + stats.replayed_unmatched;
  return lengths;
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
  switch (cls) {
    case FaultClass::kRecorderCrash: return run_crash_case(seed, report);
    case FaultClass::kRankKill: return run_kill_case(seed, report);
    case FaultClass::kIoFault: return run_io_fault_case(seed, report);
    case FaultClass::kWindow: return run_window_case(seed, report);
    default: return run_transport_case(cls, seed, report);
  }
}

std::optional<FuzzFailure> ScheduleFuzzer::run_transport_case(
    FaultClass cls, std::uint64_t seed, FuzzReport* report) {
  FuzzFailure failure{workload_.name, cls, seed, {}};
  if (report != nullptr) ++report->cases_run;

  // Record under the case's fault schedule.
  runtime::MemoryStore store;
  tool::Recorder recorder(workload_.num_ranks, &store,
                          tool_options(options_.chunk_target));
  support::OrderProbe record_probe(&recorder);
  minimpi::Simulator record_sim(
      sim_config(workload_.num_ranks, mix(seed * 4 + 1),
                 plan_for(cls, mix(seed * 4 + 2)), workers_for(seed)),
      &record_probe);
  const double recorded_value = workload_.run(record_sim);
  recorder.finalize();

  // Replay under a different noise seed AND a different fault schedule of
  // the same class: replay must pin the receive order regardless of what
  // the replay run's own transport does.
  tool::Replayer replayer(workload_.num_ranks, &store,
                          tool_options(options_.chunk_target));
  support::OrderProbe replay_probe(&replayer);
  minimpi::Simulator replay_sim(
      sim_config(workload_.num_ranks, mix(seed * 4 + 3),
                 plan_for(cls, mix(seed * 4 + 4)), workers_for(seed)),
      &replay_probe);
  const double replayed_value = workload_.run(replay_sim);

  if (report != nullptr)
    report->faults_injected += fired_faults(record_sim.fault_stats()) +
                               fired_faults(replay_sim.fault_stats());

  const support::OracleReport oracle =
      support::check_equivalence(record_probe.trace(), replay_probe.trace());
  if (report != nullptr) report->events_checked += oracle.events_compared;
  if (!oracle.ok) {
    failure.detail = oracle.summary();
    return failure;
  }
  if (recorded_value != replayed_value) {
    failure.detail = "order-sensitive result diverged: recorded " +
                     format_double_bits(recorded_value) + " != replayed " +
                     format_double_bits(replayed_value);
    return failure;
  }
  if (!replayer.fully_replayed()) {
    failure.detail = "replay finished with unconsumed record";
    return failure;
  }
  if (report != nullptr) ++report->cases_passed;
  return std::nullopt;
}

std::string ScheduleFuzzer::scratch_path(const char* tag,
                                         std::uint64_t seed) const {
  const std::string file = "cdc_fuzz_" + workload_.name + "_" + tag + "_" +
                           std::to_string(seed) + "_" +
                           std::to_string(::getpid()) + ".cdc";
  return (scratch_root(options_.scratch_dir) / file).string();
}

std::optional<FuzzFailure> ScheduleFuzzer::run_crash_case(
    std::uint64_t seed, FuzzReport* report) {
  FuzzFailure failure{workload_.name, FaultClass::kRecorderCrash, seed, {}};
  if (report != nullptr) ++report->cases_run;
  const std::string container_path = scratch_path("crash", seed);
  const std::string repacked_path = scratch_path("repacked", seed);

  // Record into an on-disk container; the recorder "crashes" after a
  // seed-dependent number of frame appends and the container is abandoned
  // unsealed — a killed process's on-disk state.
  store::ContainerStore container(container_path);
  tool::CrashingStore crashing(&container, /*appends_before_crash=*/seed % 32);
  tool::Recorder recorder(workload_.num_ranks, &crashing,
                          tool_options(options_.chunk_target));
  support::OrderProbe record_probe(&recorder);
  minimpi::Simulator record_sim(
      sim_config(workload_.num_ranks, mix(seed * 4 + 1), {},
                 workers_for(seed)),
      &record_probe);
  workload_.run(record_sim);
  recorder.finalize();
  container.abandon();

  // Salvage: repack the replayable frames into a fresh sealed container,
  // open it and prefix-replay it.
  const store::RepackResult repack =
      store::repack_container(container_path, repacked_path);
  std::optional<FuzzFailure> result;
  if (!repack.ok) {
    // The store wrote the container's header, so any readable file
    // repacks, even one holding no frame.
    failure.detail = "salvage failed with " +
                     std::to_string(crashing.appends_forwarded()) +
                     " frames persisted: " + repack.error;
    result = failure;
  } else {
    const auto salvaged = store::ContainerStore::open(repacked_path);
    tool::Replayer replayer(workload_.num_ranks, salvaged.get(),
                            tool_options(options_.chunk_target,
                                         /*partial_record=*/true));
    support::OrderProbe replay_probe(&replayer);
    minimpi::Simulator replay_sim(
        sim_config(workload_.num_ranks, mix(seed * 4 + 3), {},
                   workers_for(seed)),
        &replay_probe);
    workload_.run(replay_sim);

    const support::OracleReport oracle = support::check_prefix(
        record_probe.trace(), replay_probe.trace(), prefix_lengths(replayer));
    if (report != nullptr) report->events_checked += oracle.events_compared;
    if (!oracle.ok) {
      failure.detail = oracle.summary();
      result = failure;
    } else if (repack.frames_kept > 0 &&
               oracle.events_compared == 0 && !replayer.released()) {
      // An empty verified prefix is legitimate under a tiny crash budget:
      // the first MF call can hit a stream with no salvaged chunks, which
      // releases the whole replay to passthrough before anything is gated.
      // But frames present + nothing gated + no release = a dead replay.
      failure.detail = "frames were salvaged but the replay gated nothing";
      result = failure;
    } else if (report != nullptr) {
      ++report->cases_passed;
    }
  }
  remove_quietly(container_path);
  remove_quietly(repacked_path);
  return result;
}

std::optional<FuzzFailure> ScheduleFuzzer::run_kill_case(std::uint64_t seed,
                                                         FuzzReport* report) {
  FuzzFailure failure{workload_.name, FaultClass::kRankKill, seed, {}};
  if (report != nullptr) ++report->cases_run;
  CDC_CHECK_MSG(workload_.kill_tolerant,
                "kRankKill requires a kill-tolerant workload");

  // Probe run (same noise seed, no faults): learn the run's virtual span
  // so the seeded kill lands mid-run rather than before the first message
  // or after the last.
  double probe_end = 0.0;
  {
    minimpi::Simulator probe(
        sim_config(workload_.num_ranks, mix(seed * 4 + 1), {},
                   workers_for(seed)));
    workload_.run(probe);
    probe_end = probe.stats().end_time;
  }

  minimpi::FaultPlan plan;
  plan.seed = mix(seed * 4 + 2);
  minimpi::RankKill kill;
  kill.rank = 1 + static_cast<minimpi::Rank>(
                      mix(seed * 4 + 2) %
                      static_cast<std::uint64_t>(workload_.num_ranks - 1));
  kill.time = probe_end * (0.10 + 0.80 * static_cast<double>(
                                             mix(seed * 4 + 5) % 1000) /
                                      1000.0);
  plan.kills.push_back(kill);

  // Record the killed run into a sealed on-disk container: the recorder
  // survives the process failure (the survivors' streams are complete;
  // the victim's end at its death).
  const std::string container_path = scratch_path("kill", seed);
  support::Trace recorded_trace;
  std::uint64_t kills_fired = 0;
  {
    store::ContainerStore container(container_path);
    tool::Recorder recorder(workload_.num_ranks, &container,
                            tool_options(options_.chunk_target));
    support::OrderProbe record_probe(&recorder);
    minimpi::Simulator record_sim(
        sim_config(workload_.num_ranks, mix(seed * 4 + 1), plan,
                   workers_for(seed)),
        &record_probe);
    workload_.run(record_sim);
    recorder.finalize();
    container.seal();
    recorded_trace = record_probe.trace();
    kills_fired = record_sim.fault_stats().rank_kills;
    if (report != nullptr) report->faults_injected += kills_fired;
  }

  // The gap report is this case's CI artifact; a recorder that survived
  // to seal() must leave a frame-complete container (the degradation is
  // semantic — the victim's streams just end early).
  const tool::GapReport gaps = tool::inspect_gaps(container_path);
  if (!options_.gap_report_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.gap_report_dir, ec);
    const std::string name = "gaps_" + workload_.name + "_" +
                             std::to_string(seed) + ".json";
    obs::JsonWriter::write_file(
        (std::filesystem::path(options_.gap_report_dir) / name).string(),
        gaps.to_json());
  }

  std::optional<FuzzFailure> result;
  if (!gaps.container_sealed || gaps.frame_coverage() < 1.0) {
    failure.detail = "sealed post-kill container is frame-damaged: " +
                     (gaps.container_errors.empty()
                          ? "coverage < 1"
                          : gaps.container_errors.front());
    result = failure;
  } else if (kills_fired != 1) {
    // The victim finished before its kill time: deterministic per seed and
    // legitimate (nothing degraded to check), but only a late kill
    // fraction should ever get there.
    if (report != nullptr) ++report->cases_passed;
  } else {
    // Degraded replay: a fault-free run gated by the truncated record;
    // once the victim's streams run dry the replayer releases survivors
    // to passthrough, and the oracle checks the gated prefix.
    const auto replay_store = store::ContainerStore::open(container_path);
    tool::Replayer replayer(workload_.num_ranks, replay_store.get(),
                            tool_options(options_.chunk_target,
                                         /*partial_record=*/true));
    support::OrderProbe replay_probe(&replayer);
    minimpi::Simulator replay_sim(
        sim_config(workload_.num_ranks, mix(seed * 4 + 3), {},
                   workers_for(seed)),
        &replay_probe);
    workload_.run(replay_sim);

    const support::OracleReport oracle = support::check_prefix(
        recorded_trace, replay_probe.trace(), prefix_lengths(replayer));
    if (report != nullptr) report->events_checked += oracle.events_compared;
    if (!oracle.ok) {
      failure.detail = oracle.summary();
      result = failure;
    } else if (oracle.events_compared == 0 && !replayer.released()) {
      failure.detail = "a killed run was recorded but the replay gated "
                       "nothing";
      result = failure;
    } else if (report != nullptr) {
      ++report->cases_passed;
    }
  }
  remove_quietly(container_path);
  return result;
}

std::optional<FuzzFailure> ScheduleFuzzer::run_io_fault_case(
    std::uint64_t seed, FuzzReport* report) {
  FuzzFailure failure{workload_.name, FaultClass::kIoFault, seed, {}};
  if (report != nullptr) ++report->cases_run;

  // Reference: the same seeded run recorded with no storage faults.
  runtime::MemoryStore clean;
  support::Trace recorded_trace;
  double recorded_value = 0.0;
  {
    tool::Recorder recorder(workload_.num_ranks, &clean,
                            tool_options(options_.chunk_target));
    support::OrderProbe probe(&recorder);
    minimpi::Simulator sim(
        sim_config(workload_.num_ranks, mix(seed * 4 + 1), {},
                   workers_for(seed)),
        &probe);
    recorded_value = workload_.run(sim);
    recorder.finalize();
    recorded_trace = probe.trace();
  }

  // The same run again, with seeded transient I/O faults injected between
  // the frame sink and the store — every one must be absorbed by the
  // bounded-backoff retries, leaving the record bit-identical.
  runtime::MemoryStore base;
  store::IoFaultPlan fault_plan;
  fault_plan.seed = mix(seed * 4 + 2);
  fault_plan.eio_every_n = 7;
  fault_plan.eio_probability = 0.25;
  fault_plan.failures_per_fault =
      1 + static_cast<std::uint32_t>(mix(seed * 4 + 4) % 3);
  fault_plan.short_write_probability = 0.5;
  fault_plan.fsync_failure_every_n = 2;
  store::IoFaultStore faulty(&base, fault_plan);
  store::RetryPolicy policy;
  policy.jitter_seed = mix(seed * 4 + 5);
  store::RetryingStore retrying(&faulty, policy);
  std::uint64_t checkpoint_failures = 0;
  {
    tool::Recorder recorder(workload_.num_ranks, &retrying,
                            tool_options(options_.chunk_target));
    support::OrderProbe probe(&recorder);
    minimpi::Simulator sim(
        sim_config(workload_.num_ranks, mix(seed * 4 + 1), {},
                   workers_for(seed)),
        &probe);
    workload_.run(sim);
    recorder.finalize();
    checkpoint_failures = recorder.checkpoint_failures();
  }
  if (report != nullptr)
    report->faults_injected += faulty.stats().transient_throws +
                               faulty.stats().fsync_failures;

  if (retrying.stats().quarantined != 0) {
    failure.detail = "transient faults quarantined " +
                     std::to_string(retrying.stats().quarantined) +
                     " frame(s)";
    return failure;
  }
  if (checkpoint_failures != 0) {
    failure.detail = "checkpoint sync failed through the retrying store";
    return failure;
  }
  const double backoff_bound =
      policy.max_total_backoff_ms() *
      static_cast<double>(faulty.stats().appends);
  if (retrying.stats().backoff_ms_total > backoff_bound) {
    failure.detail = "backoff exceeded its bound: " +
                     std::to_string(retrying.stats().backoff_ms_total) +
                     "ms > " +
                     std::to_string(backoff_bound) + "ms";
    return failure;
  }
  // Bit-identical to the fault-free record, stream by stream.
  const auto clean_keys = clean.keys();
  if (clean_keys != base.keys()) {
    failure.detail = "faulted record has different streams";
    return failure;
  }
  for (const runtime::StreamKey& key : clean_keys) {
    if (clean.read(key) != base.read(key)) {
      failure.detail = "stream (rank=" + std::to_string(key.rank) +
                       ", callsite=" + std::to_string(key.callsite) +
                       ") is not bit-identical after retried faults";
      return failure;
    }
  }

  // And the surviving record replays with full equivalence.
  tool::Replayer replayer(workload_.num_ranks, &base,
                          tool_options(options_.chunk_target));
  support::OrderProbe replay_probe(&replayer);
  minimpi::Simulator replay_sim(
      sim_config(workload_.num_ranks, mix(seed * 4 + 3), {},
                 workers_for(seed)),
      &replay_probe);
  const double replayed_value = workload_.run(replay_sim);

  const support::OracleReport oracle =
      support::check_equivalence(recorded_trace, replay_probe.trace());
  if (report != nullptr) report->events_checked += oracle.events_compared;
  if (!oracle.ok) {
    failure.detail = oracle.summary();
    return failure;
  }
  if (recorded_value != replayed_value) {
    failure.detail = "order-sensitive result diverged after retried faults";
    return failure;
  }
  if (report != nullptr) ++report->cases_passed;
  return std::nullopt;
}

std::optional<FuzzFailure> ScheduleFuzzer::run_window_case(
    std::uint64_t seed, FuzzReport* report) {
  FuzzFailure failure{workload_.name, FaultClass::kWindow, seed, {}};
  if (report != nullptr) ++report->cases_run;
  // The transport adversary cycles deterministically with the seed, so a
  // 16-seed sweep covers every transport class at least twice.
  static constexpr std::array<FaultClass, 6> kTransport = {
      FaultClass::kNone,      FaultClass::kDelaySpike,
      FaultClass::kReorderBurst, FaultClass::kDuplicate,
      FaultClass::kRankStall, FaultClass::kAll,
  };
  const FaultClass transport = kTransport[seed % kTransport.size()];
  const std::string container_path = scratch_path("window", seed);

  // Record under the case's fault schedule into a sealed, epoch-indexed
  // container on disk.
  {
    store::ContainerStore container(container_path);
    tool::Recorder recorder(workload_.num_ranks, &container,
                            tool_options(options_.chunk_target));
    support::OrderProbe record_probe(&recorder);
    minimpi::Simulator record_sim(
        sim_config(workload_.num_ranks, mix(seed * 8 + 1),
                   plan_for(transport, mix(seed * 8 + 2)),
                   workers_for(seed)),
        &record_probe);
    workload_.run(record_sim);
    recorder.finalize();
    container.seal();
    if (report != nullptr)
      report->faults_injected += fired_faults(record_sim.fault_stats());
  }
  const auto cleanup = [&] { remove_quietly(container_path); };

  const auto store = store::ContainerStore::open(container_path);
  if (store->reader() == nullptr || !store->reader()->epoch_index_ok()) {
    failure.detail = "sealed container has no usable epoch index";
    cleanup();
    return failure;
  }

  // Full replay under a different schedule: the reference trace every
  // window slice is checked against.
  tool::Replayer full(workload_.num_ranks, store.get(),
                      tool_options(options_.chunk_target));
  support::OrderProbe full_probe(&full);
  minimpi::Simulator full_sim(
      sim_config(workload_.num_ranks, mix(seed * 8 + 3),
                 plan_for(transport, mix(seed * 8 + 4)), workers_for(seed)),
      &full_probe);
  workload_.run(full_sim);
  if (report != nullptr)
    report->faults_injected += fired_faults(full_sim.fault_stats());
  if (!full.fully_replayed()) {
    failure.detail = "full replay finished with unconsumed record";
    cleanup();
    return failure;
  }

  // A seed-derived epoch window inside the record's deepest stream.
  std::uint64_t epochs = 0;
  for (const auto& [key, stats] : full.stream_totals())
    epochs = std::max(epochs, stats.chunks);
  if (epochs == 0) {
    failure.detail = "record holds no epochs to window";
    cleanup();
    return failure;
  }
  const std::uint64_t lo = mix(seed * 8 + 5) % epochs;
  const std::uint64_t hi = lo + 1 + mix(seed * 8 + 6) % (epochs - lo);

  // Windowed replay under a third schedule. The stream bytes must come
  // from the epoch-index seek — a sequential-read fallback is a failure.
  obs::Counter& fallbacks = obs::counter("store.container.epoch_fallbacks");
  const std::uint64_t fallbacks_before = fallbacks.value();
  tool::Replayer window(workload_.num_ranks, store.get(),
                        tool_options(options_.chunk_target));
  window.replay_window(lo, hi);
  support::OrderProbe window_probe(&window);
  minimpi::Simulator window_sim(
      sim_config(workload_.num_ranks, mix(seed * 8 + 7),
                 plan_for(transport, mix(seed * 8 + 9)), workers_for(seed)),
      &window_probe);
  workload_.run(window_sim);
  if (report != nullptr)
    report->faults_injected += fired_faults(window_sim.fault_stats());
  if (fallbacks.value() != fallbacks_before) {
    failure.detail = "windowed replay fell back to a sequential read";
    cleanup();
    return failure;
  }

  // Each stream's verified [begin, end) must match the same events of the
  // full replay. Non-vacuity: the stream that triggered the release covered
  // its whole window, so a window over a non-empty record verifies real
  // events, and check_slices fails one that verifies none.
  std::map<runtime::StreamKey, support::EventSpan> slices;
  for (const auto& [key, slice] : window.window_slices())
    slices[key] = {slice.begin, slice.end};
  const support::OracleReport oracle =
      support::check_slices(full_probe.trace(), window_probe.trace(), slices);
  if (report != nullptr) report->events_checked += oracle.events_compared;
  if (!oracle.ok) {
    failure.detail = "window [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "): " + oracle.summary();
    cleanup();
    return failure;
  }
  cleanup();
  if (report != nullptr) ++report->cases_passed;
  return std::nullopt;
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
  support::Trace recorded_trace;
  {
    store::ContainerStore container(sealed_path);
    tool::Recorder recorder(workload.num_ranks, &container,
                            tool_options(chunk_target));
    support::OrderProbe probe(&recorder);
    minimpi::Simulator sim(
        sim_config(workload.num_ranks, mix(seed * 4 + 1), {},
                   workers_for(seed)),
        &probe);
    workload.run(sim);
    recorder.finalize();
    container.seal();
    recorded_trace = probe.trace();
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
    std::ifstream in(sealed_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
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
    tool::Replayer replayer(workload.num_ranks, salvaged.get(),
                            tool_options(chunk_target,
                                         /*partial_record=*/true));
    support::OrderProbe probe(&replayer);
    minimpi::Simulator sim(
        sim_config(workload.num_ranks, mix(seed * 4 + 3), {},
                   workers_for(seed)),
        &probe);
    workload.run(sim);

    const support::OracleReport oracle = support::check_prefix(
        recorded_trace, probe.trace(), prefix_lengths(replayer));
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
