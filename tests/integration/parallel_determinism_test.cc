// Worker-count invariance of the simulator (DESIGN.md §15).
//
// The conservative time-window engine's product is determinism: for a
// fixed (workload, seed, fault plan), every worker count must produce the
// same run. This suite proves it end to end — 1/2/4/8-worker record runs
// of taskfarm, MCB and Jacobi must seal byte-identical containers, surface
// identical application-visible receive traces and bitwise-identical
// order-sensitive results, and agree on every simulator counter
// (scheduler_events stays exact: per-shard counters merged at run end).
// Fault plans (delay spikes, reorder bursts, duplicates, stalls) and a
// mid-run rank kill ride the same invariance check, and a 64-rank MCB run
// has workers create streams concurrently. Replay closes the loop at
// every worker count: full replays of each baseline container must be
// oracle-clean and identical, and a degraded replay of the killed run and
// a windowed replay of the 64-rank MCB record must verify the same prefix
// and the same window slices whatever the worker count. Exceptions from
// the coordinator (tool hooks at window barriers, rank programs resumed
// by the terminal drain) must propagate out of run() at every worker
// count.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "minimpi/schedule_fuzzer.h"
#include "store/container_store.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace cdc {
namespace {

using fuzz::FuzzWorkload;

constexpr std::array<int, 4> kWorkerCounts = {1, 2, 4, 8};

/// Small chunks: many flushes cross window barriers.
constexpr tool::ToolOptions kToolOptions{.chunk_target = 48};

std::string fresh_container_path(const std::string& tag) {
  static int counter = 0;
  const std::string file = "cdc_par_det_" + tag + "_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(counter++) + ".cdc";
  return (std::filesystem::temp_directory_path() / file).string();
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Everything one record run produced that must be worker-count-invariant.
struct RunArtifacts {
  std::vector<std::uint8_t> container_bytes;
  fuzz::ProbedRun run;
  std::uint64_t order_digest = 0;
  std::string container_path;  ///< kept on disk until remove()
};

void remove_container(RunArtifacts& art) {
  std::error_code ec;
  std::filesystem::remove(art.container_path, ec);
  art.container_path.clear();
}

RunArtifacts record_run(const FuzzWorkload& workload, std::uint64_t seed,
                        const minimpi::FaultPlan& plan, int workers) {
  RunArtifacts art;
  art.container_path =
      fresh_container_path(workload.name + "_w" + std::to_string(workers));
  store::ContainerStore container(art.container_path);
  tool::Recorder recorder(workload.num_ranks, &container, kToolOptions);
  art.run = fuzz::run_probed(
      workload, &recorder,
      fuzz::sim_config(workload.num_ranks,
                       fuzz::case_seed(seed, fuzz::kRecordNoise), plan,
                       workers));
  recorder.finalize();
  container.seal();
  art.container_bytes = read_bytes(art.container_path);
  art.order_digest = recorder.order_digest();
  return art;
}

void expect_stats_equal(const RunArtifacts& base, const RunArtifacts& other,
                        const std::string& what) {
  const auto& a = base.run.stats;
  const auto& b = other.run.stats;
  EXPECT_EQ(a.messages_sent, b.messages_sent) << what;
  EXPECT_EQ(a.receive_events_delivered, b.receive_events_delivered) << what;
  EXPECT_EQ(a.mf_calls, b.mf_calls) << what;
  EXPECT_EQ(a.unmatched_tests, b.unmatched_tests) << what;
  // The satellite claim: exact (not sampled, not racy) under parallel.
  EXPECT_EQ(a.scheduler_events, b.scheduler_events) << what;
  EXPECT_EQ(a.mf_failures, b.mf_failures) << what;
  EXPECT_EQ(a.ranks_failed, b.ranks_failed) << what;
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
  const auto& fa = base.run.fault_stats;
  const auto& fb = other.run.fault_stats;
  EXPECT_EQ(fa.delay_spikes, fb.delay_spikes) << what;
  EXPECT_EQ(fa.burst_messages, fb.burst_messages) << what;
  EXPECT_EQ(fa.duplicates_injected, fb.duplicates_injected) << what;
  EXPECT_EQ(fa.stalls, fb.stalls) << what;
  EXPECT_EQ(fa.rank_kills, fb.rank_kills) << what;
}

/// Records the workload at every worker count and checks the N-worker runs
/// against the first count's baseline; returns the baseline with its
/// sealed container still on disk (for the replay leg).
RunArtifacts check_worker_invariance(
    const FuzzWorkload& workload, std::uint64_t seed,
    const minimpi::FaultPlan& plan,
    std::span<const int> worker_counts = kWorkerCounts) {
  RunArtifacts baseline = record_run(workload, seed, plan, worker_counts[0]);
  EXPECT_FALSE(baseline.container_bytes.empty());
  for (std::size_t i = 1; i < worker_counts.size(); ++i) {
    const int workers = worker_counts[i];
    const std::string what = workload.name + " seed=" + std::to_string(seed) +
                             " workers=" + std::to_string(workers) +
                             " vs baseline";
    RunArtifacts art = record_run(workload, seed, plan, workers);
    EXPECT_EQ(art.container_bytes, baseline.container_bytes)
        << what << ": sealed containers differ";
    EXPECT_EQ(art.order_digest, baseline.order_digest) << what;
    EXPECT_EQ(art.run.value, baseline.run.value) << what;  // bitwise
    const support::OracleReport traces =
        support::check_equivalence(baseline.run.trace, art.run.trace);
    EXPECT_TRUE(traces.ok) << what << ": " << traces.summary();
    EXPECT_GT(traces.events_compared, 0u) << what;
    expect_stats_equal(baseline, art, what);
    remove_container(art);
  }
  return baseline;
}

/// The oracle leg: the baseline container replayed under another noise
/// seed at every worker count. Each replay must reproduce the recorded
/// receive order and the order-sensitive result bitwise and consume the
/// whole record, and every worker count must surface the same trace.
void check_replays(const FuzzWorkload& workload, std::uint64_t seed,
                   RunArtifacts& baseline,
                   std::span<const int> worker_counts = kWorkerCounts) {
  const auto store = store::ContainerStore::open(baseline.container_path);
  ASSERT_NE(store, nullptr);
  support::Trace first_trace;
  for (const int workers : worker_counts) {
    const std::string what =
        workload.name + " replay workers=" + std::to_string(workers);
    tool::Replayer replayer(workload.num_ranks, store.get(), kToolOptions);
    const fuzz::ProbedRun replayed = fuzz::run_probed(
        workload, &replayer,
        fuzz::sim_config(workload.num_ranks,
                         fuzz::case_seed(seed, fuzz::kReplayNoise), {},
                         workers));
    const support::OracleReport oracle =
        support::check_equivalence(baseline.run.trace, replayed.trace);
    EXPECT_TRUE(oracle.ok) << what << ": " << oracle.summary();
    EXPECT_EQ(replayed.value, baseline.run.value) << what;
    EXPECT_TRUE(replayer.fully_replayed()) << what;
    if (workers == worker_counts[0])
      first_trace = replayed.trace;
    else
      EXPECT_TRUE(replayed.trace == first_trace)
          << what << ": trace differs from " << worker_counts[0]
          << " worker(s)";
  }
  remove_container(baseline);
}

/// Records and replays under the fuzz case's fault plan for `cls`
/// (kAll layers every transport fault the plan supports).
void run_suite(const FuzzWorkload& workload, std::uint64_t seed,
               fuzz::FaultClass cls) {
  RunArtifacts baseline = check_worker_invariance(
      workload, seed,
      fuzz::plan_for(cls, fuzz::case_seed(seed, fuzz::kRecordFaults)));
  check_replays(workload, seed, baseline);
}

TEST(ParallelDeterminism, TaskfarmByteIdenticalAcrossWorkerCounts) {
  run_suite(fuzz::taskfarm_workload(8, 120), 1, fuzz::FaultClass::kNone);
  run_suite(fuzz::taskfarm_workload(8, 120), 42, fuzz::FaultClass::kAll);
}

TEST(ParallelDeterminism, McbByteIdenticalAcrossWorkerCounts) {
  run_suite(fuzz::mcb_workload(2, 2, 24), 1, fuzz::FaultClass::kNone);
  run_suite(fuzz::mcb_workload(2, 2, 24), 42, fuzz::FaultClass::kAll);
}

/// Many ranks: 1/4/8 workers create the ranks' streams concurrently, so
/// the recorder's lock-free stream table is exercised under TSan.
TEST(ParallelDeterminism, McbManyRanksByteIdentical) {
  const FuzzWorkload workload = fuzz::mcb_workload(8, 8, 24);
  constexpr std::array<int, 3> kWorkers = {1, 4, 8};
  RunArtifacts baseline = check_worker_invariance(workload, 7, {}, kWorkers);
  check_replays(workload, 7, baseline);
}

TEST(ParallelDeterminism, McbWindowedReplayIdenticalAcrossWorkerCounts) {
  // Windowed replay releases the whole run to passthrough once the first
  // stream exhausts its window; the release applies at a window barrier,
  // so the verified slices must not depend on the worker count.
  const FuzzWorkload workload = fuzz::mcb_workload(8, 8, 24);
  RunArtifacts baseline = record_run(workload, 7, {}, /*workers=*/1);
  const auto store = store::ContainerStore::open(baseline.container_path);
  ASSERT_NE(store, nullptr);
  using Slices = std::map<runtime::StreamKey, support::EventSpan>;
  Slices first_slices;
  for (const int workers : kWorkerCounts) {
    const std::string what =
        "windowed replay workers=" + std::to_string(workers);
    tool::Replayer replayer(workload.num_ranks, store.get(), kToolOptions);
    replayer.replay_window(1, 3);
    const fuzz::ProbedRun replayed = fuzz::run_probed(
        workload, &replayer,
        fuzz::sim_config(workload.num_ranks,
                         fuzz::case_seed(7, fuzz::kReplayNoise), {}, workers));

    // Each verified slice must be the same interval of the recording.
    Slices slices;
    for (const auto& [key, slice] : replayer.window_slices())
      slices[key] = {slice.begin, slice.end};
    const support::OracleReport oracle =
        support::check_slices(baseline.run.trace, replayed.trace, slices);
    EXPECT_TRUE(oracle.ok) << what << ": " << oracle.summary();
    EXPECT_GT(oracle.events_compared, 0u) << what;
    if (workers == kWorkerCounts[0])
      first_slices = slices;
    else
      EXPECT_EQ(slices, first_slices) << what;
  }
  remove_container(baseline);
}

TEST(ParallelDeterminism, JacobiByteIdenticalAcrossWorkerCounts) {
  run_suite(fuzz::jacobi_workload(), 1, fuzz::FaultClass::kNone);
  run_suite(fuzz::jacobi_workload(), 42, fuzz::FaultClass::kAll);
}

TEST(ParallelDeterminism, TaskfarmRankKillMidRun) {
  const FuzzWorkload workload = fuzz::taskfarm_workload(8, 120);
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42}}) {
    // Aim the kill mid-run: probe the span of the fault-free run.
    const double span =
        fuzz::run_probed(
            workload, nullptr,
            fuzz::sim_config(workload.num_ranks,
                             fuzz::case_seed(seed, fuzz::kRecordNoise)))
            .stats.end_time;
    minimpi::FaultPlan plan = fuzz::plan_for(
        fuzz::FaultClass::kAll, fuzz::case_seed(seed + 7, fuzz::kRecordFaults));
    plan.kills.push_back(minimpi::RankKill{
        1 + static_cast<minimpi::Rank>(
                fuzz::case_seed(seed, fuzz::kRecordFaults) %
                static_cast<std::uint64_t>(workload.num_ranks - 1)),
        span * 0.4});

    RunArtifacts baseline = check_worker_invariance(workload, seed, plan);
    EXPECT_EQ(baseline.run.fault_stats.rank_kills, 1u) << "seed=" << seed;

    // Degraded replay of the killed run: a fault-free run gated by the
    // truncated record; the oracle checks the gated prefix, which must be
    // the same at every worker count.
    const auto store = store::ContainerStore::open(baseline.container_path);
    ASSERT_NE(store, nullptr);
    std::map<runtime::StreamKey, std::uint64_t> first_prefixes;
    for (const int workers : {1, 4}) {
      const std::string what = "seed=" + std::to_string(seed) +
                               " workers=" + std::to_string(workers);
      tool::ToolOptions options = kToolOptions;
      options.partial_record = true;
      tool::Replayer replayer(workload.num_ranks, store.get(), options);
      const fuzz::ProbedRun replayed = fuzz::run_probed(
          workload, &replayer,
          fuzz::sim_config(workload.num_ranks,
                           fuzz::case_seed(seed, fuzz::kReplayNoise), {},
                           workers));
      const auto prefixes = fuzz::prefix_lengths(replayer);
      const support::OracleReport oracle =
          support::check_prefix(baseline.run.trace, replayed.trace, prefixes);
      EXPECT_TRUE(oracle.ok) << what << ": " << oracle.summary();
      EXPECT_TRUE(oracle.events_compared > 0 || replayer.released())
          << what << ": killed record gated nothing";
      if (workers == 1)
        first_prefixes = prefixes;
      else
        EXPECT_EQ(prefixes, first_prefixes) << what;
    }
    remove_container(baseline);
  }
}

/// A tool whose window-barrier hook fails: the exception surfaces on the
/// coordinator, between windows.
class ThrowingWindowTool final : public minimpi::ToolHooks {
 public:
  void on_window(double /*horizon*/) override {
    if (++windows_ == 3) throw std::runtime_error("on_window failed");
  }

 private:
  int windows_ = 0;
};

TEST(ParallelDeterminism, CoordinatorExceptionsPropagateOutOfRun) {
  for (const int workers : {1, 2, 4}) {
    const std::string what = "workers=" + std::to_string(workers);
    {
      // A tool hook at a window barrier throws.
      const FuzzWorkload workload = fuzz::taskfarm_workload(8, 120);
      ThrowingWindowTool tool;
      minimpi::Simulator sim(
          fuzz::sim_config(workload.num_ranks, 1, {}, workers), &tool);
      try {
        workload.run(sim);
        ADD_FAILURE() << what << ": run() returned normally";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "on_window failed") << what;
      }
      // run() let go of the simulator: reinstalling a program is legal.
      sim.set_program(0, [](minimpi::Comm&) -> minimpi::Task { co_return; });
    }
    {
      // A rank program throws when its wait fails after a rank kill; the
      // terminal drain resumes it on the coordinator.
      minimpi::Simulator::Config config;
      config.num_ranks = 4;
      config.workers = workers;
      config.faults.kills.push_back(minimpi::RankKill{1, 1e-6});
      minimpi::Simulator sim(config);
      sim.set_program([](minimpi::Comm& comm) -> minimpi::Task {
        if (comm.rank() == 0) {
          minimpi::Request r = comm.irecv(1, 7);
          const minimpi::MFResult res = co_await comm.wait(r);
          if (res.failed) throw std::runtime_error("peer failed");
        } else {
          co_await comm.compute(1e-3);  // rank 1 dies in here
          if (comm.rank() == 1) comm.isend(0, 7, std::vector<std::uint8_t>{1});
        }
      });
      try {
        sim.run();
        ADD_FAILURE() << what << ": run() returned normally";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "peer failed") << what;
      }
      sim.set_program(0, [](minimpi::Comm&) -> minimpi::Task { co_return; });
    }
  }
}

}  // namespace
}  // namespace cdc
