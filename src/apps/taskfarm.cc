#include "apps/taskfarm.h"

#include <vector>

#include "support/check.h"
#include "support/rng.h"

namespace cdc::apps {

namespace {

using minimpi::Comm;
using minimpi::Rank;
using minimpi::Request;
using minimpi::Task;

constexpr int kTaskTag = 20;
constexpr int kResultTag = 21;
/// Mean virtual seconds per item; each item's cost varies around it.
constexpr double kTaskCostMean = 4e-6;
/// Seeds the deterministic per-item cost and value.
constexpr std::uint64_t kWorkSeed = 99;

struct WorkItem {
  std::int64_t id = 0;
  std::int32_t stop = 0;
  std::int32_t padding = 0;
};
static_assert(std::is_trivially_copyable_v<WorkItem>);

struct WorkResult {
  double value = 0.0;
  std::int64_t id = 0;
};
static_assert(std::is_trivially_copyable_v<WorkResult>);

struct SharedResult {
  double accumulated = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t lost = 0;  ///< tasks written off on failed workers
};

Task master_rank(Comm& comm, TaskFarmConfig cfg, SharedResult* shared) {
  const int workers = comm.size() - 1;
  std::int64_t next_task = 0;
  std::int64_t outstanding = 0;

  const auto send_next = [&](Rank worker) {
    WorkItem item;
    if (next_task < cfg.tasks) {
      item.id = next_task++;
      ++outstanding;
    } else {
      item.stop = 1;
    }
    comm.isend(worker, kTaskTag, minimpi::to_payload(item));
    return item.stop == 0;
  };

  // One result receive per worker, re-posted after each delivery; workers
  // holding a stop marker drop out of the wait set.
  std::vector<Request> result_recvs(static_cast<std::size_t>(workers));
  std::vector<bool> active(static_cast<std::size_t>(workers), false);
  for (int w = 0; w < workers; ++w) {
    const Rank worker = static_cast<Rank>(w + 1);
    if (send_next(worker)) {
      result_recvs[static_cast<std::size_t>(w)] =
          comm.irecv(worker, kResultTag);
      active[static_cast<std::size_t>(w)] = true;
    }
  }

  while (outstanding > 0) {
    // Wait on the receives of currently active workers only.
    std::vector<Request> wait_set;
    std::vector<int> wait_worker;
    for (int w = 0; w < workers; ++w) {
      if (active[static_cast<std::size_t>(w)]) {
        wait_set.push_back(result_recvs[static_cast<std::size_t>(w)]);
        wait_worker.push_back(w);
      }
    }
    auto res = co_await comm.waitany(wait_set, kFarmResultCallsite);
    if (res.failed) {
      // ULFM shrink: write off the task each dead worker held and drop the
      // worker from the wait set; the farm continues on the survivors. A
      // failure naming no active worker leaves nothing to shrink — stop.
      bool shrunk = false;
      for (const Rank dead : res.failed_ranks) {
        const int w = static_cast<int>(dead) - 1;
        if (w < 0 || w >= workers || !active[static_cast<std::size_t>(w)])
          continue;
        active[static_cast<std::size_t>(w)] = false;
        --outstanding;
        ++shared->lost;
        shrunk = true;
      }
      if (!shrunk) break;
      continue;
    }
    const auto& completion = res.completions[0];
    const int w = wait_worker[completion.span_index];
    const auto result = minimpi::from_payload<WorkResult>(completion.payload);

    // Order-sensitive fold: FP multiply-accumulate is not associative.
    shared->accumulated = shared->accumulated * 1.0000000001 + result.value;
    ++shared->completed;
    --outstanding;

    const Rank worker = static_cast<Rank>(w + 1);
    if (send_next(worker)) {
      result_recvs[static_cast<std::size_t>(w)] =
          comm.irecv(worker, kResultTag);
    } else {
      active[static_cast<std::size_t>(w)] = false;
    }
  }
}

Task worker_rank(Comm& comm) {
  for (;;) {
    Request req = comm.irecv(0, kTaskTag);
    auto res = co_await comm.wait(req, kFarmTaskCallsite);
    if (res.failed) break;  // the master died: no more work is coming
    const auto item =
        minimpi::from_payload<WorkItem>(res.completions[0].payload);
    if (item.stop != 0) break;

    // Deterministic per-item cost and value: only completion ORDER varies
    // between runs.
    const std::uint64_t h = support::splitmix64(
        kWorkSeed ^
        (static_cast<std::uint64_t>(item.id) * support::kGoldenGamma));
    const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
    co_await comm.compute(kTaskCostMean * (0.25 + 1.5 * unit));
    WorkResult result;
    result.id = item.id;
    result.value = 1.0 + unit;
    comm.isend(0, kResultTag, minimpi::to_payload(result));
  }
}

}  // namespace

TaskFarmResult run_taskfarm(minimpi::Simulator& sim,
                            const TaskFarmConfig& config) {
  CDC_CHECK_MSG(sim.size() >= 2, "task farm needs a master and >=1 worker");
  auto shared = std::make_shared<SharedResult>();
  sim.set_program(0, [config, shared](Comm& comm) {
    return master_rank(comm, config, shared.get());
  });
  for (Rank r = 1; r < sim.size(); ++r)
    sim.set_program(r, [](Comm& comm) { return worker_rank(comm); });
  const minimpi::Simulator::Stats stats = sim.run();

  TaskFarmResult result;
  result.accumulated = shared->accumulated;
  result.completed = shared->completed;
  result.tasks_lost = shared->lost;
  result.elapsed = stats.end_time;
  result.messages = stats.messages_sent;
  return result;
}

}  // namespace cdc::apps
