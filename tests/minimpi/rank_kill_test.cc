// ULFM-flavoured rank-failure semantics: a killed rank stops executing,
// peers observe FailedRank errors instead of deadlocking, the
// kill-tolerant task farm shrinks and completes, and a genuine deadlock
// still aborts with a diagnostic naming the stuck ranks. A killed rank
// leaves parked messages behind, so every case runs on one and on four
// workers with the same assertions.
#include "minimpi/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "apps/taskfarm.h"
#include "minimpi/fault.h"

namespace cdc::minimpi {
namespace {

constexpr int kWorkerCounts[] = {1, 4};

Simulator::Config config(int ranks, int workers, std::uint64_t seed = 1) {
  Simulator::Config c;
  c.num_ranks = ranks;
  c.noise_seed = seed;
  c.workers = workers;
  return c;
}

Simulator::Config config_with_kill(int ranks, int workers, Rank victim,
                                   double time, std::uint64_t seed = 1) {
  Simulator::Config c = config(ranks, workers, seed);
  c.faults.kills.push_back(RankKill{victim, time});
  return c;
}

std::vector<std::uint8_t> payload(std::uint8_t v) { return {v}; }

TEST(RankKill, KilledRankStopsExecutingAndIsCounted) {
  // Rank 1 is killed before its send ever happens; rank 0's wait on it
  // fails with the dead rank implicated instead of blocking forever.
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    Simulator sim(config_with_kill(2, workers, /*victim=*/1, /*time=*/1e-6));
    sim.set_program(0, [](Comm& comm) -> Task {
      Request r = comm.irecv(1, 7);
      auto res = co_await comm.wait(r);
      EXPECT_TRUE(res.failed);
      EXPECT_EQ(res.failed_ranks, std::vector<Rank>{1});
      EXPECT_TRUE(res.completions.empty());
    });
    sim.set_program(1, [](Comm& comm) -> Task {
      co_await comm.compute(1e-3);  // killed long before this finishes
      comm.isend(0, 7, payload(1));
    });
    const auto stats = sim.run();
    EXPECT_EQ(sim.fault_stats().rank_kills, 1u);
    EXPECT_EQ(stats.ranks_failed, 1u);
    EXPECT_EQ(stats.mf_failures, 1u);
    EXPECT_TRUE(sim.rank_failed(1));
    EXPECT_FALSE(sim.rank_failed(0));
    EXPECT_EQ(stats.messages_sent, 0u);  // the victim never reached its send
  }
}

TEST(RankKill, InFlightMessagesFromTheDeadRankStillArrive) {
  // The network outlives the process: a message sent before the kill time
  // is delivered normally; only post-mortem execution is lost.
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    Simulator sim(config_with_kill(2, workers, /*victim=*/1, /*time=*/5e-4));
    sim.set_program(0, [](Comm& comm) -> Task {
      Request first = comm.irecv(1, 7);
      auto res = co_await comm.wait(first);
      EXPECT_FALSE(res.failed);
      EXPECT_EQ(res.completions[0].payload[0], 42);
      Request second = comm.irecv(1, 8);
      auto res2 = co_await comm.wait(second);
      EXPECT_TRUE(res2.failed);  // the second send never happened
      EXPECT_EQ(res2.failed_ranks, std::vector<Rank>{1});
    });
    sim.set_program(1, [](Comm& comm) -> Task {
      comm.isend(0, 7, payload(42));  // before the kill
      co_await comm.compute(1e-2);    // killed in here
      comm.isend(0, 8, payload(43));  // never happens
    });
    const auto stats = sim.run();
    EXPECT_EQ(stats.receive_events_delivered, 1u);
    EXPECT_EQ(sim.fault_stats().rank_kills, 1u);
  }
}

TEST(RankKill, TaskFarmShrinksAroundADeadWorkerAndCompletes) {
  // The ULFM shrink idiom end to end: the master writes off the dead
  // worker's outstanding tasks and keeps farming to the survivors — the
  // run completes, with exactly the written-off tasks missing.
  apps::TaskFarmConfig farm;
  farm.tasks = 80;
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    apps::TaskFarmResult healthy;
    {
      Simulator sim(config(5, workers, /*seed=*/3));
      healthy = apps::run_taskfarm(sim, farm);
    }
    Simulator sim(config_with_kill(5, workers, /*victim=*/2,
                                   /*time=*/healthy.elapsed * 0.4,
                                   /*seed=*/3));
    const apps::TaskFarmResult degraded = apps::run_taskfarm(sim, farm);
    EXPECT_EQ(sim.fault_stats().rank_kills, 1u);
    EXPECT_GT(degraded.tasks_lost, 0u);
    EXPECT_EQ(degraded.completed + degraded.tasks_lost,
              static_cast<std::uint64_t>(farm.tasks));
    EXPECT_EQ(healthy.tasks_lost, 0u);
    EXPECT_EQ(healthy.completed, static_cast<std::uint64_t>(farm.tasks));
  }
}

TEST(RankKill, SameKillScheduleIsBitReproducible) {
  apps::TaskFarmConfig farm;
  farm.tasks = 60;
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    auto run_once = [&farm, workers]() {
      Simulator sim(config_with_kill(4, workers, /*victim=*/1, /*time=*/2e-4,
                                     /*seed=*/9));
      return apps::run_taskfarm(sim, farm);
    };
    const apps::TaskFarmResult a = run_once();
    const apps::TaskFarmResult b = run_once();
    EXPECT_EQ(a.accumulated, b.accumulated);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.tasks_lost, b.tasks_lost);
  }
}

using RankKillDeathTest = ::testing::Test;

TEST(RankKillDeathTest, DeadlockDiagnosticNamesTheStuckRank) {
  // A wait on a finished-but-silent peer is a genuine deadlock; the abort
  // must name the stuck rank and what it was waiting for.
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    EXPECT_DEATH(
        {
          Simulator sim(config(2, workers));
          sim.set_program(0, [](Comm& comm) -> Task {
            Request r = comm.irecv(1, 7);
            auto res = co_await comm.wait(r);
            (void)res;
          });
          sim.set_program(1, [](Comm& comm) -> Task {
            co_await comm.compute(1e-6);  // never sends
          });
          sim.run();
        },
        "deadlock — rank 0 blocked");
  }
}

}  // namespace
}  // namespace cdc::minimpi
