// The MiniMPI discrete-event simulator.
//
// Architecture: one coroutine per rank, and one event heap and virtual
// clock per rank (a shard). Four event kinds exist — rank resume (compute
// finished), message delivery (a send's latency elapsed at the receiver),
// MF poll (a matching-function call re-examines its request set), and the
// fault plan's rank kills. Message latency = base + Exp(jitter_mean)
// drawn from the sender's seeded RNG stream; the same seed reproduces a
// run bit-for-bit, different seeds permute application-level receive
// orders — the non-determinism the paper's tool records and replays.
// Per-(source,destination) delivery is forced non-overtaking, matching
// MPI's ordering guarantee (§3.1 / Figure 3: the MPI level is ordered per
// channel; the application level is not).
//
// run() drives the shards in conservative time windows (DESIGN.md §15):
// every rank applies its events below the horizon, then all meet at a
// window barrier where cross-rank deliveries and collectives are resolved
// and the horizon advances by the lookahead, Config::base_latency. Every
// event carries a key drawn during its origin rank's own deterministic
// execution, so each rank applies its events in an order that depends on
// the seed only — a run is identical at every worker count.
#pragma once

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "minimpi/fault.h"
#include "minimpi/hooks.h"
#include "minimpi/task.h"
#include "minimpi/types.h"
#include "support/check.h"

namespace cdc::minimpi {

class Comm;
class Simulator;

/// Awaits a fixed amount of virtual compute time.
struct ComputeAwaiter {
  Simulator* sim;
  Rank rank;
  double seconds;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle);
  void await_resume() const noexcept {}
};

/// Awaits one matching-function call (any of the Wait/Test families). The
/// call's request ids wait in the rank's reused list (Comm::make_mf) until
/// await_suspend resolves them, so each MF call is awaited before the
/// rank makes the next one — as `co_await comm.wait(...)` does.
struct MFAwaiter {
  Simulator* sim;
  Rank rank;
  MFKind kind;
  CallsiteId callsite;
  MFResult result;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle);
  MFResult await_resume() noexcept { return std::move(result); }
};

/// Awaits a barrier (simulator-level deterministic collective).
struct BarrierAwaiter {
  Simulator* sim;
  Rank rank;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle);
  void await_resume() const noexcept {}
};

/// Awaits an allreduce over a vector of doubles; elementwise reduction in
/// deterministic rank order (so the collective itself never introduces
/// non-determinism — any run-to-run variation comes from the local inputs,
/// exactly as in the paper's MCB discussion).
struct AllreduceAwaiter {
  Simulator* sim;
  Rank rank;
  std::vector<double> contribution;
  std::vector<double> result;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle);
  std::vector<double> await_resume() noexcept { return std::move(result); }
};

/// Per-rank view of the runtime handed to rank programs — the MPI
/// communicator analogue. All methods must be called from the owning
/// rank's coroutine.
class Comm {
 public:
  Comm(Simulator* sim, Rank rank) : sim_(sim), rank_(rank) {}

  [[nodiscard]] Rank rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;
  [[nodiscard]] double now() const noexcept;

  /// Nonblocking send. Completes locally at once (buffered-send model);
  /// the returned request is immediately waitable.
  Request isend(Rank dst, int tag, std::span<const std::uint8_t> data);

  /// Nonblocking receive with optional wildcards.
  Request irecv(Rank source = kAnySource, int tag = kAnyTag);

  /// Advances this rank's virtual time (models local work).
  [[nodiscard]] ComputeAwaiter compute(double seconds) noexcept {
    return {sim_, rank_, seconds};
  }

  // --- Matching functions (§3.1). `callsite` identifies the MF call
  // location for per-callsite reference orders (§4.4).
  [[nodiscard]] MFAwaiter wait(Request request, CallsiteId callsite = 0);
  [[nodiscard]] MFAwaiter waitall(std::span<const Request> requests,
                                  CallsiteId callsite = 0);
  [[nodiscard]] MFAwaiter waitany(std::span<const Request> requests,
                                  CallsiteId callsite = 0);
  [[nodiscard]] MFAwaiter waitsome(std::span<const Request> requests,
                                   CallsiteId callsite = 0);
  [[nodiscard]] MFAwaiter test(Request request, CallsiteId callsite = 0);
  [[nodiscard]] MFAwaiter testall(std::span<const Request> requests,
                                  CallsiteId callsite = 0);
  [[nodiscard]] MFAwaiter testany(std::span<const Request> requests,
                                  CallsiteId callsite = 0);
  [[nodiscard]] MFAwaiter testsome(std::span<const Request> requests,
                                   CallsiteId callsite = 0);

  // --- Deterministic collectives (not recorded; see DESIGN.md).
  [[nodiscard]] BarrierAwaiter barrier() noexcept { return {sim_, rank_}; }
  [[nodiscard]] AllreduceAwaiter allreduce_sum(std::vector<double> values) {
    return {sim_, rank_, std::move(values), {}};
  }

 private:
  MFAwaiter make_mf(MFKind kind, std::span<const Request> requests,
                    CallsiteId callsite);

  Simulator* sim_;
  Rank rank_;
};

/// A rank program: given its communicator, returns the rank's coroutine.
using Program = std::function<Task(Comm&)>;

class Simulator {
 public:
  struct Config {
    int num_ranks = 1;
    /// Worker threads that apply each window's events (capped at
    /// num_ranks). 0 and 1 both mean one worker on the caller's thread.
    /// The run is identical for every value: only wall time changes.
    int workers = 0;
    std::uint64_t noise_seed = 1;      ///< permutes message arrival orders
    static constexpr double base_latency = 1.0e-6;  ///< seconds, per message
    /// Mean of the exponential noise term.
    static constexpr double jitter_mean = 5.0e-7;
    /// Virtual cost of one MPI call.
    static constexpr double mpi_call_cost = 5.0e-8;
    /// Virtual cost charged to the application thread per delivered
    /// receive event when a tool is attached — models the enqueue +
    /// interference cost of recording (Figure 16's overhead). Calibrate
    /// from real encoder timings (bench/fig16_overhead).
    double tool_event_cost = 0.0;
    /// Virtual cost charged per matching-function call when a tool is
    /// attached — the PMPI/PnMPI interception stack on hot polling loops.
    double tool_call_cost = 0.0;
    /// Virtual cost charged per send for clock piggybacking (§6.2 measures
    /// 1.18% end-to-end for 8-byte piggyback data).
    double piggyback_send_cost = 0.0;
    /// Seeded transport-fault schedule (see fault.h). Disabled by default;
    /// a disabled plan draws nothing from the fault RNG, so the run is
    /// bit-identical to one without the field.
    FaultPlan faults;
  };

  struct Stats {
    std::uint64_t messages_sent = 0;
    std::uint64_t receive_events_delivered = 0;
    std::uint64_t mf_calls = 0;
    std::uint64_t unmatched_tests = 0;
    std::uint64_t scheduler_events = 0;
    std::uint64_t mf_failures = 0;  ///< MF calls failed (ULFM-style)
    std::uint64_t ranks_failed = 0;  ///< ranks killed by the fault plan
    /// High-water mark of the deepest per-rank event heap.
    std::uint64_t max_queue_depth = 0;
    /// Most receives live at once on any one rank (posted, not yet
    /// delivered). Bounded by the program's posting pattern, not by
    /// traffic.
    std::uint64_t max_live_requests = 0;
    /// Unexpected-queue entries visited by MF polls looking for messages a
    /// replay tool could deliver on a remapped request (every entry of the
    /// polling rank's queue, once per poll).
    std::uint64_t unexpected_scanned = 0;
    /// Unexpected-queue entries post_irecv compared against a new receive,
    /// the matched one included (so also a bound on the erase position).
    std::uint64_t irecv_scanned = 0;
    /// Deepest unexpected queue (arrived, unmatched messages) on any rank.
    std::uint64_t max_unexpected = 0;
    /// Most messages parked at once: sent and not yet delivered or
    /// dropped (the message slab's high-water mark).
    std::uint64_t max_live_messages = 0;
    /// Messages still parked when the run ended — arrivals no receive
    /// took (a dead rank's, or ones the program never received). Zero for
    /// a program that receives everything it is sent.
    std::uint64_t unreceived_messages = 0;
    double end_time = 0.0;  ///< virtual seconds when the last rank finished
  };

  explicit Simulator(const Config& config, ToolHooks* hooks = nullptr);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Installs the same program on every rank.
  void set_program(const Program& program);
  /// Installs a program on one rank.
  void set_program(Rank rank, const Program& program);

  /// Runs to completion. Aborts with a diagnostic on deadlock (all ranks
  /// blocked with no pending event) — a deadlock here is always a bug in
  /// an application or in a replay tool holding back a message forever.
  /// An exception thrown by a rank program or a tool hook ends the run and
  /// propagates out of run().
  Stats run();

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(ranks_.size());
  }
  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const FaultStats& fault_stats() const noexcept {
    return fault_stats_;
  }
  [[nodiscard]] Comm& comm(Rank rank) {
    CDC_CHECK(rank >= 0 && rank < size());
    return *ranks_[static_cast<std::size_t>(rank)].comm;
  }
  /// True once the fault plan killed this rank (ULFM process failure).
  [[nodiscard]] bool rank_failed(Rank rank) const {
    CDC_CHECK(rank >= 0 && rank < size());
    return ranks_[static_cast<std::size_t>(rank)].failed;
  }

 private:
  friend class Comm;
  friend struct ComputeAwaiter;
  friend struct MFAwaiter;
  friend struct BarrierAwaiter;
  friend struct AllreduceAwaiter;

  /// Per-rank shards and the window engine (parallel_state.h). run() owns
  /// one for the duration of the run; par_ points at it meanwhile.
  struct ParallelState;

  /// A message in flight or parked at its destination. It is written once
  /// into the sending worker's outbox and moved once into the run's
  /// message slab (ParallelState::messages) at the window merge; from
  /// there the event heap, a matched receive and the unexpected queue refer
  /// to it by its MessageSlot until the delivering poll moves the payload
  /// into the application's Completion (DESIGN.md §15).
  struct Message {
    std::uint64_t piggyback = 0;
    std::uint64_t arrival_seq = 0;  ///< stamped at delivery; orders queues
    /// Per-channel send sequence number. Channels deliver non-overtaking,
    /// so arrivals carry strictly increasing values — a repeated value is a
    /// transport duplicate and is dropped before the matching layer.
    std::uint64_t transport_seq = 0;
    Rank source = -1;
    int tag = -1;
    Payload payload;
    bool tool_sighted = false;  ///< already listed to the tool hooks
  };
  using MessageSlot = std::uint32_t;
  static constexpr MessageSlot kNoMessage = ~MessageSlot{0};

  /// A Request id packs (post sequence, slot): the rank's post counter in
  /// the high bits, so ids order by post order, and the receive's slab
  /// slot in the low kSlotBits. Sends keep no state; their slot field is
  /// kNoSlot.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kNoSlot = (1u << kSlotBits) - 1;
  [[nodiscard]] static std::uint32_t slot_of(std::uint64_t id) noexcept {
    return static_cast<std::uint32_t>(id) & kNoSlot;
  }

  /// A posted receive, in its rank's slab slot from irecv until the poll
  /// that delivers it finishes; the slot then goes back to the free list.
  struct RecvSlot {
    std::uint64_t id = 0;  ///< the occupant's Request id; 0 when free
    Rank source_spec = kAnySource;
    int tag_spec = kAnyTag;
    /// Set by the delivering poll, which frees the slot before it returns.
    bool delivered = false;
    std::uint64_t match_seq = 0;  ///< order of this rank's matches
    MessageSlot message = kNoMessage;  ///< the matched message, if any
    [[nodiscard]] bool matched() const noexcept {
      return message != kNoMessage;
    }
  };

  enum class EventType : std::uint8_t {
    kResume,
    kDeliver,
    kPoll,
    kKill,  ///< fault-plan rank kill fires
  };

  struct RankCtx {
    double time = 0.0;
    Program program;  ///< owns the coroutine's closure for the rank's lifetime
    Task task;
    bool finished = false;
    /// Killed by the fault plan: the coroutine is never resumed again, its
    /// pending events are dropped, and peers waiting on it observe
    /// MFResult::failed at the terminal drain (see shrink_failed_waits).
    bool failed = false;
    std::unique_ptr<Comm> comm;

    /// Receive slab. A slot holds a live receive or waits on free_slots;
    /// the slab grows only when every slot is live.
    std::vector<RecvSlot> recv_slots;
    std::vector<std::uint32_t> free_slots;
    std::uint64_t last_post = 0;  ///< post sequence of the latest request
    std::vector<std::uint64_t> posted_recvs;  // unmatched recv ids, post order
    std::vector<MessageSlot> unexpected;  // unmatched arrivals, arrival order

    // At most one MF call can be pending per rank (the rank is a single
    // coroutine).
    bool mf_active = false;
    MFAwaiter* mf = nullptr;
    /// The request ids of the MF call being made (Comm::make_mf), reused.
    std::vector<std::uint64_t> mf_request_ids;
    /// The pending call's requests, resolved once when it was issued: the
    /// slab slot of each live receive, kNoSlot for a completed one.
    std::vector<std::uint32_t> mf_slots;
    std::coroutine_handle<> mf_continuation;
    bool mf_poll_scheduled = false;

    // Collective state.
    bool in_barrier = false;
    std::coroutine_handle<> collective_continuation;
    AllreduceAwaiter* allreduce = nullptr;
  };

  /// Pushes a rank-local event onto `rank`'s shard heap. Deliveries go
  /// through post_isend and the worker outboxes instead.
  void schedule(double time, EventType type, Rank rank,
                std::coroutine_handle<> handle = nullptr);
  /// Adds fault-plan extra latency (delay spikes, reorder bursts) for one
  /// outgoing message from `src`; returns the adjusted latency.
  double apply_message_faults(double latency, Rank src, Rank dst);
  /// Applies a rank-stall fault to a pending resume/poll time.
  double maybe_stall(double time, Rank rank);
  /// The parked message in `slot` of the run's slab.
  [[nodiscard]] Message& message(MessageSlot slot) noexcept;
  void try_match_arrival(Rank rank, MessageSlot slot);
  void insert_unexpected(Rank rank, RankCtx& ctx, MessageSlot slot);
  void rematch_unexpected(Rank rank, RankCtx& ctx);
  void poll_mf(Rank rank);
  void resume_rank(Rank rank, std::coroutine_handle<> handle, double time);
  void check_rank_done(Rank rank);
  void complete_barrier_if_ready();
  void complete_allreduce_if_ready();
  /// Marks `rank` dead: drops it from pending collectives, forgets its
  /// pending MF call, and never resumes its coroutine again.
  void kill_rank(Rank rank);
  /// Fails the rank's pending MF call (ULFM MPI_ERR_PROC_FAILED analogue)
  /// and resumes the application with MFResult::failed set. Pending
  /// requests stay posted; the app drops dead-rank requests from its next
  /// wait set.
  void fail_mf(Rank rank, std::vector<Rank> failed_ranks);
  /// Terminal-drain shrink: fails every pending MF call that can no longer
  /// be satisfied because implicated senders died. Returns true if any
  /// call failed.
  bool shrink_failed_waits();
  /// Prints the per-rank stuck diagnostic ahead of the deadlock abort.
  void describe_stuck_ranks() const;
  [[nodiscard]] int live_count() const noexcept {
    return size() - failed_count_;
  }

  Request post_isend(Rank src, Rank dst, int tag,
                     std::span<const std::uint8_t> data);
  Request post_irecv(Rank rank, Rank source, int tag);

  /// Mirrors the per-run tallies into the obs registry.
  void emit_obs_stats();

  Config config_;
  ToolHooks* hooks_;
  ToolHooks default_hooks_;
  FaultStats fault_stats_;
  std::vector<RankCtx> ranks_;
  double now_ = 0.0;
  int failed_count_ = 0;
  std::vector<std::vector<double>> allreduce_inputs_;
  Stats stats_;
  bool running_ = false;
  ParallelState* par_ = nullptr;
};

// --- Typed payload helpers ------------------------------------------------

/// Serializes a trivially copyable value into a payload buffer.
template <typename T>
  requires std::is_trivially_copyable_v<T>
Payload to_payload(const T& value) {
  return Payload(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(&value), sizeof(T)));
}

/// Deserializes a trivially copyable value from a payload buffer.
template <typename T>
  requires std::is_trivially_copyable_v<T>
T from_payload(std::span<const std::uint8_t> payload) {
  CDC_CHECK(payload.size() == sizeof(T));
  T value;
  std::memcpy(&value, payload.data(), sizeof(T));
  return value;
}

}  // namespace cdc::minimpi
