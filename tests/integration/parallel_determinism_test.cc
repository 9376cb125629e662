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
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/jacobi.h"
#include "apps/mcb.h"
#include "apps/taskfarm.h"
#include "minimpi/fault.h"
#include "minimpi/simulator.h"
#include "store/container_store.h"
#include "support/oracle.h"
#include "tool/options.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace cdc {
namespace {

constexpr std::array<int, 4> kWorkerCounts = {1, 2, 4, 8};

std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Workload {
  std::string name;
  int ranks = 0;
  std::function<double(minimpi::Simulator&)> run;
};

Workload taskfarm_workload() {
  apps::TaskFarmConfig config;
  config.tasks = 120;
  return {"taskfarm", 8, [config](minimpi::Simulator& sim) {
            return apps::run_taskfarm(sim, config).accumulated;
          }};
}

Workload mcb_workload() {
  apps::McbConfig config;
  config.grid_x = 2;
  config.grid_y = 2;
  config.particles_per_rank = 24;
  config.segments_per_particle = 6;
  config.tracks_per_poll = 8;
  return {"mcb", 4, [config](minimpi::Simulator& sim) {
            return apps::run_mcb(sim, config).global_tally;
          }};
}

/// Many ranks: 1/4/8 workers create the ranks' streams concurrently, so
/// the recorder's lock-free stream table is exercised under TSan.
Workload mcb_many_ranks_workload() {
  apps::McbConfig config;
  config.grid_x = 8;
  config.grid_y = 8;
  config.particles_per_rank = 24;
  config.segments_per_particle = 6;
  config.tracks_per_poll = 8;
  return {"mcb64", 64, [config](minimpi::Simulator& sim) {
            return apps::run_mcb(sim, config).global_tally;
          }};
}

Workload jacobi_workload() {
  apps::JacobiConfig config;
  config.grid_x = 2;
  config.grid_y = 2;
  config.local_nx = 6;
  config.local_ny = 6;
  config.iterations = 40;
  return {"jacobi", 4, [config](minimpi::Simulator& sim) {
            return apps::run_jacobi(sim, config).residual;
          }};
}

/// The transport adversary for the "faults" mode: every fault class the
/// plan supports, layered, as in fuzz::FaultClass::kAll.
minimpi::FaultPlan all_faults(std::uint64_t seed) {
  minimpi::FaultPlan plan;
  plan.seed = seed;
  plan.delay_spike_probability = 0.05;
  plan.reorder_burst_probability = 0.02;
  plan.duplicate_probability = 0.05;
  plan.stall_probability = 0.01;
  return plan;
}

minimpi::Simulator::Config sim_config(const Workload& workload,
                                      std::uint64_t noise_seed,
                                      const minimpi::FaultPlan& faults,
                                      int workers) {
  minimpi::Simulator::Config config;
  config.num_ranks = workload.ranks;
  config.noise_seed = noise_seed;
  config.faults = faults;
  config.workers = workers;
  return config;
}

tool::ToolOptions tool_options(bool partial_record = false) {
  tool::ToolOptions options;
  options.chunk_target = 48;  // small: many flushes cross window barriers
  options.partial_record = partial_record;
  return options;
}

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
  support::Trace trace;
  double value = 0.0;
  minimpi::Simulator::Stats stats;
  minimpi::FaultStats fault_stats;
  std::uint64_t order_digest = 0;
  std::string container_path;  ///< kept on disk until remove()
};

void remove_container(RunArtifacts& art) {
  std::error_code ec;
  std::filesystem::remove(art.container_path, ec);
  art.container_path.clear();
}

RunArtifacts record_run(const Workload& workload, std::uint64_t seed,
                        const minimpi::FaultPlan& plan, int workers) {
  RunArtifacts art;
  art.container_path =
      fresh_container_path(workload.name + "_w" + std::to_string(workers));
  store::ContainerStore container(art.container_path);
  tool::Recorder recorder(workload.ranks, &container, tool_options());
  support::OrderProbe probe(&recorder);
  minimpi::Simulator sim(sim_config(workload, mix(seed), plan, workers),
                         &probe);
  art.value = workload.run(sim);
  recorder.finalize();
  container.seal();
  art.container_bytes = read_bytes(art.container_path);
  art.trace = probe.trace();
  art.stats = sim.stats();
  art.fault_stats = sim.fault_stats();
  art.order_digest = recorder.order_digest();
  return art;
}

void expect_stats_equal(const RunArtifacts& base, const RunArtifacts& other,
                        const std::string& what) {
  const auto& a = base.stats;
  const auto& b = other.stats;
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
  const auto& fa = base.fault_stats;
  const auto& fb = other.fault_stats;
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
    const Workload& workload, std::uint64_t seed,
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
    EXPECT_EQ(art.value, baseline.value) << what;  // bitwise: same order
    const support::OracleReport traces =
        support::check_equivalence(baseline.trace, art.trace);
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
void check_replays(const Workload& workload, std::uint64_t seed,
                   RunArtifacts& baseline,
                   std::span<const int> worker_counts = kWorkerCounts) {
  const auto store = store::ContainerStore::open(baseline.container_path);
  ASSERT_NE(store, nullptr);
  support::Trace first_trace;
  for (const int workers : worker_counts) {
    const std::string what =
        workload.name + " replay workers=" + std::to_string(workers);
    tool::Replayer replayer(workload.ranks, store.get(), tool_options());
    support::OrderProbe probe(&replayer);
    minimpi::Simulator sim(
        sim_config(workload, mix(seed ^ 0x5ca1ab1eull), {}, workers),
        &probe);
    const double replayed = workload.run(sim);
    const support::OracleReport oracle =
        support::check_equivalence(baseline.trace, probe.trace());
    EXPECT_TRUE(oracle.ok) << what << ": " << oracle.summary();
    EXPECT_EQ(replayed, baseline.value) << what;
    EXPECT_TRUE(replayer.fully_replayed()) << what;
    if (workers == worker_counts[0])
      first_trace = probe.trace();
    else
      EXPECT_TRUE(probe.trace() == first_trace)
          << what << ": trace differs from " << worker_counts[0]
          << " worker(s)";
  }
  remove_container(baseline);
}

void run_suite(const Workload& workload, std::uint64_t seed,
               const minimpi::FaultPlan& plan) {
  RunArtifacts baseline = check_worker_invariance(workload, seed, plan);
  check_replays(workload, seed, baseline);
}

TEST(ParallelDeterminism, TaskfarmByteIdenticalAcrossWorkerCounts) {
  run_suite(taskfarm_workload(), 1, {});
  run_suite(taskfarm_workload(), 42, all_faults(mix(42)));
}

TEST(ParallelDeterminism, McbByteIdenticalAcrossWorkerCounts) {
  run_suite(mcb_workload(), 1, {});
  run_suite(mcb_workload(), 42, all_faults(mix(42)));
}

TEST(ParallelDeterminism, McbManyRanksByteIdentical) {
  const Workload workload = mcb_many_ranks_workload();
  constexpr std::array<int, 3> kWorkers = {1, 4, 8};
  RunArtifacts baseline = check_worker_invariance(workload, 7, {}, kWorkers);
  check_replays(workload, 7, baseline);
}

TEST(ParallelDeterminism, McbWindowedReplayIdenticalAcrossWorkerCounts) {
  // Windowed replay releases the whole run to passthrough once the first
  // stream exhausts its window; the release applies at a window barrier,
  // so the verified slices must not depend on the worker count.
  const Workload workload = mcb_many_ranks_workload();
  RunArtifacts baseline = record_run(workload, 7, {}, /*workers=*/1);
  const auto store = store::ContainerStore::open(baseline.container_path);
  ASSERT_NE(store, nullptr);
  using Slices = std::map<runtime::StreamKey, support::EventSpan>;
  Slices first_slices;
  for (const int workers : kWorkerCounts) {
    const std::string what =
        "windowed replay workers=" + std::to_string(workers);
    tool::Replayer replayer(workload.ranks, store.get(), tool_options());
    replayer.replay_window(1, 3);
    support::OrderProbe probe(&replayer);
    minimpi::Simulator sim(
        sim_config(workload, mix(7 ^ 0x5ca1ab1eull), {}, workers), &probe);
    workload.run(sim);

    // Each verified slice must be the same interval of the recording.
    Slices slices;
    for (const auto& [key, slice] : replayer.window_slices())
      slices[key] = {slice.begin, slice.end};
    const support::OracleReport oracle =
        support::check_slices(baseline.trace, probe.trace(), slices);
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
  run_suite(jacobi_workload(), 1, {});
  run_suite(jacobi_workload(), 42, all_faults(mix(42)));
}

TEST(ParallelDeterminism, TaskfarmRankKillMidRun) {
  const Workload workload = taskfarm_workload();
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42}}) {
    // Aim the kill mid-run: probe the span of the fault-free run.
    double probe_end = 0.0;
    {
      minimpi::Simulator probe(
          sim_config(workload, mix(seed), {}, /*workers=*/1));
      workload.run(probe);
      probe_end = probe.stats().end_time;
    }
    minimpi::FaultPlan plan = all_faults(mix(seed + 7));
    minimpi::RankKill kill;
    kill.rank = 1 + static_cast<minimpi::Rank>(
                        mix(seed) %
                        static_cast<std::uint64_t>(workload.ranks - 1));
    kill.time = probe_end * 0.4;
    plan.kills.push_back(kill);

    RunArtifacts baseline = check_worker_invariance(workload, seed, plan);
    EXPECT_EQ(baseline.fault_stats.rank_kills, 1u) << "seed=" << seed;

    // Degraded replay of the killed run: a fault-free run gated by the
    // truncated record; the oracle checks the gated prefix, which must be
    // the same at every worker count.
    const auto store = store::ContainerStore::open(baseline.container_path);
    ASSERT_NE(store, nullptr);
    std::map<runtime::StreamKey, std::uint64_t> first_prefixes;
    for (const int workers : {1, 4}) {
      const std::string what = "seed=" + std::to_string(seed) +
                               " workers=" + std::to_string(workers);
      tool::Replayer replayer(workload.ranks, store.get(),
                              tool_options(/*partial_record=*/true));
      support::OrderProbe probe(&replayer);
      minimpi::Simulator sim(
          sim_config(workload, mix(seed ^ 0x5ca1ab1eull), {}, workers),
          &probe);
      workload.run(sim);
      std::map<runtime::StreamKey, std::uint64_t> prefixes;
      for (const auto& [key, stats] : replayer.stream_totals())
        prefixes[key] = stats.replayed_events + stats.replayed_unmatched;
      const support::OracleReport oracle =
          support::check_prefix(baseline.trace, probe.trace(), prefixes);
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
      const Workload workload = taskfarm_workload();
      ThrowingWindowTool tool;
      minimpi::Simulator sim(sim_config(workload, 1, {}, workers), &tool);
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
