// Schedule fuzzer: adversarial record→replay validation at volume.
//
// Drives N seeded delivery-order permutations — each under a transport
// fault class from minimpi/fault.h — through the full pipeline
// (record → encode → store → decode → replay) and checks every case with
// the replay-equivalence oracle (support/oracle.h): the replayed
// per-(rank, callsite) receive order must be bit-identical to the recorded
// one, and the workload's order-sensitive floating-point result must match
// bitwise. The recorder-crash class records into an on-disk container,
// abandons it unsealed mid-run (tool/crash_store.h), salvages it with the
// store repack path, and prefix-replays the survivor; two companion sweeps
// truncate a sealed container at every frame boundary and damage each of
// its frames in turn, and prove each salvaged prefix CRC-verifies and
// replays faithfully.
//
// The simulator's worker count is a seed-cycled fuzz axis: record and
// replay runs use workers = {1,2,4}[seed % 3], so every class also runs
// the tool hooks concurrently on the multi-worker window engine.
//
// Every failure carries (workload, fault class, seed) — the complete
// reproduction key: two runs with the same triple are bit-identical
// (the worker count is derived from the seed, and the run does not
// depend on it).
//
// Every record and replay run here is one run_probed() call; fig19, the
// parallel-determinism suite and the fuzz tests build their checks from
// the same helpers, workloads and seed layout.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "minimpi/fault.h"
#include "minimpi/simulator.h"
#include "store/resilient.h"
#include "support/oracle.h"
#include "tool/degraded.h"

namespace cdc::tool {
class Replayer;
}  // namespace cdc::tool

namespace cdc::fuzz {

/// One fault class per fuzz case. kAll layers every transport fault;
/// kRecorderCrash is the storage-failure case (no transport faults — the
/// crash is the adversary). kRankKill and kIoFault are the
/// survive-and-resume classes: a process failure mid-run (requires a
/// kill-tolerant workload; the record is then degraded-replayed and
/// prefix-checked) and transient storage I/O errors absorbed by the
/// retrying frame sink (the record must come out bit-identical).
enum class FaultClass : std::uint8_t {
  kNone,
  kDelaySpike,
  kReorderBurst,
  kDuplicate,
  kRankStall,
  kAll,
  kRecorderCrash,
  kRankKill,
  kIoFault,
  kWindow,
};

/// Every class every workload supports (kRankKill is excluded: it needs
/// FuzzWorkload::kill_tolerant — see kFailureFaultClasses; kWindow is the
/// nightly windowed-replay class and runs in its own fuzz_window suite).
inline constexpr std::array<FaultClass, 8> kAllFaultClasses = {
    FaultClass::kNone,      FaultClass::kDelaySpike,
    FaultClass::kReorderBurst, FaultClass::kDuplicate,
    FaultClass::kRankStall, FaultClass::kAll,
    FaultClass::kRecorderCrash, FaultClass::kIoFault,
};

/// The survive-and-resume slice (CI's degraded-replay fuzz job): process
/// failure + storage failure.
inline constexpr std::array<FaultClass, 2> kFailureFaultClasses = {
    FaultClass::kRankKill,
    FaultClass::kIoFault,
};

/// The windowed-replay class (nightly `fuzz_window` suite): each case
/// records under a seed-derived transport fault class into an
/// epoch-indexed container, full-replays it, then replays a seed-derived
/// epoch window [lo, hi) and checks every verified window slice against
/// the same interval of the full-replay trace (support/oracle.h
/// check_equivalence on the slices). The seek must come from the epoch
/// index — a fallback to a sequential read fails the case.
inline constexpr std::array<FaultClass, 1> kWindowFaultClasses = {
    FaultClass::kWindow,
};

[[nodiscard]] constexpr const char* fault_class_name(FaultClass cls) noexcept {
  switch (cls) {
    case FaultClass::kNone: return "none";
    case FaultClass::kDelaySpike: return "delay_spike";
    case FaultClass::kReorderBurst: return "reorder_burst";
    case FaultClass::kDuplicate: return "duplicate";
    case FaultClass::kRankStall: return "rank_stall";
    case FaultClass::kAll: return "all";
    case FaultClass::kRecorderCrash: return "recorder_crash";
    case FaultClass::kRankKill: return "rank_kill";
    case FaultClass::kIoFault: return "io_fault";
    case FaultClass::kWindow: return "window";
  }
  return "?";
}

/// The seeded FaultPlan one fuzz case runs under (deterministic in
/// (cls, seed); kNone/kRecorderCrash yield a disabled plan).
[[nodiscard]] minimpi::FaultPlan plan_for(FaultClass cls, std::uint64_t seed);

/// A workload the fuzzer can drive: installs programs on the simulator,
/// runs it, and returns an order-sensitive floating-point result (bitwise
/// reproduction of that value is part of the oracle check).
struct FuzzWorkload {
  std::string name;
  int num_ranks = 1;
  /// True when the application shrinks around killed ranks (taskfarm).
  /// kRankKill cases require it; MCB's global completion count cannot
  /// survive losing in-flight particles, so it stays false there.
  bool kill_tolerant = false;
  std::function<double(minimpi::Simulator&)> run;
};

/// Master/worker task farm (Waitany/Wait idiom), sized for fuzzing volume.
[[nodiscard]] FuzzWorkload taskfarm_workload(int num_ranks = 6,
                                             int tasks = 160);
/// MCB-style particle transport (Testsome polling idiom), small grid.
[[nodiscard]] FuzzWorkload mcb_workload(int grid_x = 2, int grid_y = 2,
                                        int particles_per_rank = 30);
/// Jacobi halo exchange (ANY_SOURCE receives: hidden determinism), 6 × 6
/// cells per rank.
[[nodiscard]] FuzzWorkload jacobi_workload(int grid_x = 2, int grid_y = 2,
                                           int iterations = 40);

/// What one probed run produced.
struct ProbedRun {
  support::Trace trace;     ///< what the application saw, per stream
  std::uint64_t events = 0;  ///< events in `trace`
  double value = 0.0;        ///< the workload's order-sensitive result
  minimpi::Simulator::Stats stats;
  minimpi::FaultStats fault_stats;
};

/// The one record or replay run every check is made of: runs `workload`
/// on a Simulator built from `config`, with `tool` (a tool::Recorder, a
/// tool::Replayer, or nullptr for an untooled run) wrapped in a
/// support::OrderProbe. The caller keeps the tool: it finalizes a
/// recorder, sets up a replayer's window, and reads its totals.
[[nodiscard]] ProbedRun run_probed(const FuzzWorkload& workload,
                                   minimpi::ToolHooks* tool,
                                   const minimpi::Simulator::Config& config);

[[nodiscard]] minimpi::Simulator::Config sim_config(
    int num_ranks, std::uint64_t noise_seed,
    const minimpi::FaultPlan& faults = {}, int workers = 1);

/// Prefix lengths for support::check_prefix, from replay progress: per
/// stream, the events gated by the (partial) record before the global
/// release.
[[nodiscard]] std::map<runtime::StreamKey, std::uint64_t> prefix_lengths(
    const tool::Replayer& replayer);

/// The per-purpose seed layout of a case: slot k of case seed s is
/// splitmix64(s * 4 + k + kGoldenGamma), so what the case's runs draw
/// (noise, faults, the kill) is decorrelated. fig19's rows use it too, and
/// see the schedules of the equivalent fuzz cases.
enum SeedSlot : std::uint64_t {
  kRecordNoise = 1,
  kRecordFaults = 2,  ///< also picks a kill's victim and seeds I/O faults
  kReplayNoise = 3,
  kReplayFaults = 4,
  kSchedule = 5,  ///< a kill's time, the retry jitter
};
[[nodiscard]] std::uint64_t case_seed(std::uint64_t seed,
                                      std::uint64_t slot) noexcept;

/// The kRankKill check, with the kill time as a fraction of the
/// fault-free run's span (fig19 sweeps it): a worker is killed while the
/// run records into a sealed container at `container_path` (removed
/// again), which must come out frame-complete, and a fault-free degraded
/// replay must verify the gated prefix.
struct KillCheck {
  ProbedRun recorded;            ///< the killed run
  tool::GapReport gaps;          ///< of the sealed container
  support::OracleReport oracle;  ///< the degraded replay's prefix check
  std::string failure;           ///< empty when the check passed
};
[[nodiscard]] KillCheck check_rank_kill(const FuzzWorkload& workload,
                                        std::uint64_t seed,
                                        double kill_fraction,
                                        const std::string& container_path,
                                        std::size_t chunk_target,
                                        int workers = 1);

/// The kIoFault check, with the fault plan as an argument (fig19 sweeps
/// its rate): the run recorded once cleanly and once through `plan`'s
/// faults and a retrying store must store the same bytes, within the
/// backoff bound and with nothing quarantined, and the faulted record
/// must replay with full equivalence and the same result.
struct IoFaultCheck {
  store::IoFaultStats faults;
  store::RetryStats retries;
  double backoff_bound_ms = 0.0;
  bool bit_identical = false;
  support::OracleReport oracle;  ///< replay of the faulted record
  bool result_matches = false;   ///< replayed value == recorded value
  std::string failure;           ///< empty when the check passed
};
[[nodiscard]] IoFaultCheck check_io_faults(const FuzzWorkload& workload,
                                           std::uint64_t seed,
                                           const store::IoFaultPlan& plan,
                                           std::size_t chunk_target,
                                           int workers = 1);

struct FuzzOptions {
  std::uint64_t base_seed = 1;   ///< case seeds are base_seed + i
  std::uint32_t num_seeds = 64;  ///< cases per fault class
  std::vector<FaultClass> classes{kAllFaultClasses.begin(),
                                  kAllFaultClasses.end()};
  std::size_t chunk_target = 64;  ///< small: exercise chunk/epoch logic
  /// Directory for recorder-crash container files; empty = the system
  /// temp directory.
  std::string scratch_dir;
  /// When non-empty, every kRankKill case writes its machine-readable gap
  /// report (tool::GapReport JSON) here as
  /// `gaps_<workload>_<seed>.json` — the CI fuzz job uploads these as
  /// artifacts.
  std::string gap_report_dir;
};

struct FuzzFailure {
  std::string workload;
  FaultClass cls = FaultClass::kNone;
  std::uint64_t seed = 0;
  std::string detail;

  [[nodiscard]] std::string repro() const;  ///< one-line reproduction key
};

struct FuzzReport {
  std::uint64_t cases_run = 0;
  std::uint64_t cases_passed = 0;
  std::uint64_t events_checked = 0;   ///< oracle event comparisons
  std::uint64_t faults_injected = 0;  ///< across all record+replay runs
  std::vector<FuzzFailure> failures;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  [[nodiscard]] std::string summary() const;
};

class ScheduleFuzzer {
 public:
  explicit ScheduleFuzzer(FuzzWorkload workload, FuzzOptions options = {});

  /// Runs every configured (class, seed) case; never aborts on a
  /// mismatch — failures land in the report with their reproduction keys.
  FuzzReport run();

  /// Runs one case (the reproduction entry point for a failure from a CI
  /// log), accumulating into `report` when given.
  std::optional<FuzzFailure> run_case(FaultClass cls, std::uint64_t seed,
                                      FuzzReport* report = nullptr);

 private:
  // One function per class: each returns its failure detail (empty when
  // the case passed) and adds what it checked and injected to `report`.
  std::string transport_case(FaultClass cls, std::uint64_t seed,
                             FuzzReport& report);
  std::string crash_case(std::uint64_t seed, FuzzReport& report);
  std::string kill_case(std::uint64_t seed, FuzzReport& report);
  std::string io_fault_case(std::uint64_t seed, FuzzReport& report);
  std::string window_case(std::uint64_t seed, FuzzReport& report);
  [[nodiscard]] std::string scratch_path(const char* tag,
                                         std::uint64_t seed) const;

  FuzzWorkload workload_;
  FuzzOptions options_;
};

/// What a salvage sweep does to its copy of the sealed record, per case.
enum class SweepDamage : std::uint8_t {
  /// Truncate at each frame boundary, including "no frames yet" and "all
  /// frames, no footer": a recorder crash.
  kTruncate,
  /// Flip one payload byte of each frame in turn, index intact: the
  /// frame's stream must keep exactly its earlier frames.
  kFlipPayloadByte,
};

/// Salvage sweep: records `workload` once into a sealed container, then
/// for each case damages a copy, repacks it, CRC-verifies the result,
/// checks that each stream holds exactly the prefix tool::inspect_gaps
/// reports for the damaged copy, and prefix-replays it against the
/// recorded trace.
struct SweepReport {
  std::uint64_t cases_tested = 0;
  std::uint64_t prefixes_verified = 0;  ///< CRC-clean and oracle-passed
  std::uint64_t frames_recorded = 0;    ///< frames in the sealed container
  std::uint64_t events_checked = 0;
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  [[nodiscard]] std::string summary() const;
};

[[nodiscard]] SweepReport salvage_sweep(const FuzzWorkload& workload,
                                        std::uint64_t seed,
                                        SweepDamage damage,
                                        const std::string& scratch_dir = {},
                                        std::size_t chunk_target = 64);

}  // namespace cdc::fuzz
