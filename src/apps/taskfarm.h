// Master/worker task farm — a third non-deterministic workload.
//
// A master rank hands work items to workers on demand and folds results
// into an order-sensitive accumulator as they arrive (MPI_Waitany over
// per-worker result receives, first come first served). Completion order
// depends on network noise, so the accumulated result varies in its last
// bits between runs — the same reproducibility problem as MCB (§2.1) in a
// different communication idiom: Waitany instead of Testsome, a single
// hot wildcard-ish callsite at the master, and strictly deterministic
// workers. Exercises the MF kinds the other apps do not.
//
// The farm is failure-aware (the ULFM shrink idiom): when a matching
// function reports failed ranks, the master writes off the tasks those
// workers held and keeps farming to the survivors, and a worker whose
// master died simply stops — so a run with a killed rank still completes,
// which is what makes this the rank-kill workload for the fuzzer and the
// degraded-replay bench.
#pragma once

#include <cstdint>

#include "minimpi/simulator.h"

namespace cdc::apps {

struct TaskFarmConfig {
  int tasks = 500;  ///< total work items
};

inline constexpr minimpi::CallsiteId kFarmResultCallsite = 1;
inline constexpr minimpi::CallsiteId kFarmTaskCallsite = 2;

struct TaskFarmResult {
  double accumulated = 0.0;    ///< order-sensitive FP fold
  std::uint64_t completed = 0;
  std::uint64_t tasks_lost = 0;  ///< written off on failed workers
  double elapsed = 0.0;
  std::uint64_t messages = 0;
};

/// Rank 0 is the master; ranks 1..size-1 are workers.
TaskFarmResult run_taskfarm(minimpi::Simulator& sim,
                            const TaskFarmConfig& config);

}  // namespace cdc::apps
