// Deterministic transport-level fault injection for the MiniMPI simulator.
//
// Replay systems are only trustworthy under adversarial delivery orders and
// partial failures, so the simulator can inject four fault classes at the
// transport layer, all drawn from a dedicated seeded RNG (never the latency
// noise stream — a fully disabled plan draws nothing and leaves a run
// bit-identical to the faultless one):
//   * delay spikes    — individual messages held back for many multiples of
//                       the base latency (a congested link / OS jitter);
//   * reorder bursts  — runs of consecutive sends scattered across a wide
//                       latency window, maximising cross-sender permutation
//                       of application-level receive order;
//   * duplicates      — a second transport copy of a message; the
//                       simulator's per-channel dedup (sequence numbers over
//                       the non-overtaking channel) drops it before the MPI
//                       matching layer, as a real transport would;
//   * rank stalls     — scheduler-level pauses of one rank's compute/poll
//                       resumption (GC pause, OS preemption, NUMA fault);
//   * rank kills      — ULFM-flavoured process failure: the rank stops
//                       executing at a scheduled virtual time, peers that
//                       can no longer be satisfied observe a FailedRank
//                       error on their matching functions, and the
//                       simulator shrinks around the dead rank instead of
//                       deadlocking (see Simulator::run()).
// The timing faults perturb *timing only*: MPI semantics (per-channel
// ordering, exactly-once delivery) are preserved, which is exactly what
// makes the recorded receive order adversarial yet replayable. Rank kills
// additionally truncate the killed rank's event stream — the survival
// scenario degraded-mode replay (tool/degraded.h) is built for.
#pragma once

#include <cstdint>
#include <vector>

namespace cdc::minimpi {

using Rank = std::int32_t;  // mirrors types.h (kept header-standalone)

/// Fault classes, as reported to ToolHooks::on_fault.
enum class FaultKind : std::uint8_t {
  kDelaySpike,
  kReorderBurst,  ///< reported once per message inside a burst
  kDuplicate,
  kRankStall,
  kRankKill,      ///< process failure: the rank never executes again
};

inline constexpr std::size_t kFaultKindCount = 5;

/// One scheduled process failure: `rank` stops executing at virtual time
/// `time`. Messages it already has in flight still arrive (the network
/// outlives the process); everything it would have done after `time` never
/// happens.
struct RankKill {
  Rank rank = -1;
  double time = 0.0;
};

/// Seeded fault-injection schedule, part of Simulator::Config. Probabilities
/// are per injection opportunity (per send for the message classes, per
/// scheduled rank resume/poll for stalls).
struct FaultPlan {
  /// Seeds the dedicated fault RNG. Two runs with identical configs,
  /// programs, and seeds inject identical faults (the reproduction contract
  /// every fuzzer failure report relies on).
  std::uint64_t seed = 0;

  // Each class's magnitude is a constant in simulator.cc; the plan sets
  // only how often it fires.
  double delay_spike_probability = 0.0;
  double reorder_burst_probability = 0.0;  ///< chance a burst starts
  double duplicate_probability = 0.0;
  double stall_probability = 0.0;

  // --- Rank kills (deterministic schedule, not probabilistic: a kill is a
  // scenario under test, not background noise).
  std::vector<RankKill> kills;

  [[nodiscard]] bool enabled() const noexcept {
    return delay_spike_probability > 0.0 || reorder_burst_probability > 0.0 ||
           duplicate_probability > 0.0 || stall_probability > 0.0 ||
           !kills.empty();
  }
};

/// What actually fired during a run (Simulator::fault_stats()).
struct FaultStats {
  std::uint64_t delay_spikes = 0;
  std::uint64_t reorder_bursts = 0;
  std::uint64_t burst_messages = 0;
  std::uint64_t duplicates_injected = 0;
  /// Transport copies discarded by per-channel dedup. Equals
  /// duplicates_injected once every in-flight copy has arrived — asserted
  /// at the end of Simulator::run(): a duplicate must never reach the MPI
  /// matching layer.
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t stalls = 0;
  double stall_seconds = 0.0;
  std::uint64_t rank_kills = 0;
};

}  // namespace cdc::minimpi
