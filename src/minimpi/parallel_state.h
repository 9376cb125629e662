// Per-rank shard state and the window engine of the simulator
// (DESIGN.md §15).
//
// Everything that would make a schedule depend on global event order if
// it were shared — RNG streams, sequence counters, channel bookkeeping,
// the event queue itself — lives here per rank. A shard is touched only
// by the worker currently running its rank (one ready-task per rank per
// window keeps that owner-serialized) or by the coordinator while every
// worker is quiesced at the window barrier, so no shard field needs a
// lock. Internal header: included by simulator.cc and parallel_executor.cc
// only.
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "minimpi/event_heap.h"
#include "minimpi/simulator.h"
#include "support/rng.h"

namespace cdc::minimpi {

struct Simulator::ParallelState {
  /// One parallel event. `oseq` is drawn from the *origin* rank's shard
  /// counter while that rank executes deterministically, so the
  /// (time, oseq, orank) key is unique and worker-count-invariant — heap
  /// pop order never depends on which worker inserted what when.
  struct PEvent {
    double time = 0.0;
    std::uint64_t oseq = 0;
    Rank orank = -1;
    EventType type = EventType::kResume;
    Rank rank = -1;                  ///< destination rank
    MessageSlot msg = kNoMessage;    ///< kDeliver only
    std::coroutine_handle<> handle;  ///< kResume only
  };

  /// A delivery staged in its sender's worker outbox during a window; the
  /// merge parks the message in the slab and sets `event.msg`.
  struct Outgoing {
    PEvent event;
    Message message;
  };

  /// Strict total order over unique keys: the tie-break total order of the
  /// window protocol.
  struct PEventBefore {
    bool operator()(const PEvent& a, const PEvent& b) const noexcept {
      if (a.time != b.time) return a.time < b.time;
      if (a.oseq != b.oseq) return a.oseq < b.oseq;
      return a.orank < b.orank;
    }
  };

  /// Channel tables hold one entry per peer a rank has talked to: sparse,
  /// because a dense rank x rank table does not fit at scale.
  struct SendChannel {
    Rank peer = -1;
    std::uint64_t send_seq = 0;
    /// Latest arrival scheduled on the channel; -inf before the first.
    double last_arrival = -std::numeric_limits<double>::infinity();
  };
  struct RecvChannel {
    Rank peer = -1;
    std::uint64_t delivered_seq = 0;
  };

  /// The entry for `peer`, inserted in peer order on first contact.
  template <typename Channel>
  static Channel& channel(std::vector<Channel>& table, Rank peer) {
    auto it = std::lower_bound(
        table.begin(), table.end(), peer,
        [](const Channel& c, Rank p) { return c.peer < p; });
    if (it == table.end() || it->peer != peer) {
      Channel fresh;
      fresh.peer = peer;
      it = table.insert(it, fresh);
    }
    return *it;
  }

  struct Shard {
    EventHeap<PEvent, PEventBefore> heap;
    /// Deterministic per-rank streams: draws depend only on this rank's
    /// own execution order, never on cross-rank interleaving.
    support::Xoshiro256 noise{1};
    support::Xoshiro256 fault_rng{1};
    std::uint32_t burst_remaining = 0;
    std::uint64_t next_seq = 0;        ///< event + arrival sequence counter
    std::uint64_t next_match_seq = 1;  ///< candidate surfacing order
    double now = 0.0;                  ///< time of the event being applied
    /// Sender-side channel state, one entry per destination (all traffic
    /// on a (src, dst) channel originates here), sorted by peer.
    std::vector<SendChannel> send_channels;
    /// Receiver-side transport dedup, one entry per source, sorted by peer.
    std::vector<RecvChannel> recv_channels;
    /// Satellite-exact accounting: per-shard tallies merged once at run
    /// end — no atomics anywhere on the hot path.
    Stats stats;
    FaultStats fault_stats;

    void push(const PEvent& ev) {
      heap.push(ev);
      stats.max_queue_depth =
          std::max<std::uint64_t>(stats.max_queue_depth, heap.size());
    }
  };

  /// poll_mf's working lists. Each poll clears and refills them; their
  /// capacity is retained, so a steady-state poll allocates nothing.
  struct PollScratch {
    std::vector<Candidate> candidates;
    std::vector<std::uint64_t> candidate_handle;
    std::vector<std::pair<std::uint64_t, std::size_t>> order;
    std::vector<MessageSlot> messages;
    std::vector<std::uint32_t> origin_slot;
    std::vector<bool> seen;
    std::vector<bool> index_used;
  };

  /// Per-worker scratch, cache-line padded against false sharing.
  struct alignas(64) Worker {
    /// Cross-rank deliveries produced this window; the coordinator drains
    /// them into destination heaps at the barrier. Capacity is retained
    /// across windows (allocation-free steady state).
    std::vector<Outgoing> outbox;
    /// Slab slots whose message a rank run by this worker delivered or
    /// dropped this window; the next merge returns them to the free list.
    std::vector<MessageSlot> freed_messages;
    /// Used by the poll running on this worker's thread.
    PollScratch poll;
    std::uint64_t window_events = 0;
    std::uint64_t total_events = 0;
    std::uint64_t steals = 0;
    std::uint64_t idle_windows = 0;
    std::size_t slice_begin = 0;  ///< into `ready`
    std::size_t slice_size = 0;
  };

  /// Work-stealing cursor of one worker's ready slice; owner and thieves
  /// both claim ranks by fetch_add.
  struct alignas(64) Cursor {
    std::atomic<std::size_t> next{0};
  };

  int workers = 1;
  double lookahead = 0.0;
  double horizon = 0.0;
  std::vector<Shard> shards;
  std::vector<std::unique_ptr<Worker>> worker_state;
  std::unique_ptr<Cursor[]> cursors;
  /// Ranks with at least one event below the horizon, rebuilt per window.
  std::vector<Rank> ready;

  /// The run's message slab. Only the coordinator parks messages, at the
  /// merge with every worker quiesced, so the vector never moves while a
  /// window runs; during a window a slot is touched only by the worker
  /// running its destination rank. A slot freed in a window waits on its
  /// worker's `freed_messages` until the next merge, so no thread writes
  /// another's list and no slot is reused in the window that freed it.
  std::vector<Message> messages;
  std::vector<MessageSlot> free_messages;

  // Cross-rank effects are staged through these and resolved only at the
  // window barrier, where the coordinator re-runs collective completion
  // deterministically (rank-order iteration, quiesced workers).
  std::atomic<int> barrier_waiting{0};
  std::atomic<int> allreduce_waiting{0};
  std::atomic<int> failed_count{0};
  std::atomic<bool> collective_dirty{false};

  [[nodiscard]] Shard& shard(Rank rank) noexcept {
    return shards[static_cast<std::size_t>(rank)];
  }

  /// Keys a staged delivery from `origin`'s counter.
  static void stage_delivery(PEvent& ev, double arrival, Shard& origin,
                             Rank origin_rank, Rank dst) noexcept {
    ev.time = arrival;
    ev.oseq = origin.next_seq++;
    ev.orank = origin_rank;
    ev.type = EventType::kDeliver;
    ev.rank = dst;
  }

  /// Moves `msg` into a slab slot: a freed one if any, else a new one.
  /// Coordinator only, at the merge.
  MessageSlot park(Message&& msg) {
    if (free_messages.empty()) {
      CDC_CHECK_MSG(messages.size() < kNoMessage, "message slab is full");
      messages.push_back(std::move(msg));
      return static_cast<MessageSlot>(messages.size() - 1);
    }
    const MessageSlot slot = free_messages.back();
    free_messages.pop_back();
    messages[slot] = std::move(msg);
    return slot;
  }

  // --- Engine driver (parallel_executor.cc) -------------------------------

  /// The worker currently executing on this thread; post_isend routes
  /// outgoing deliveries to its outbox. The main thread doubles as worker
  /// 0 (and as the coordinator).
  static thread_local Worker* tls_worker;

  std::barrier<>* sync = nullptr;
  std::atomic<bool> stop{false};
  /// A worker or the coordinator stashed `error` (an exception from a rank
  /// program or a tool hook); the engine stops at the next window barrier,
  /// and drive() rethrows it after joining the pool.
  std::atomic<bool> worker_failed{false};
  std::mutex error_mu;
  std::exception_ptr error;  ///< guarded by error_mu

  std::uint64_t windows = 0;
  std::uint64_t last_progress = ~std::uint64_t{0};
  bool first_window = true;

  Simulator::Stats drive(Simulator& sim);
  void worker_loop(Simulator& sim, int wid);
  /// Stashes the in-flight exception for drive() to rethrow.
  void fail(std::exception_ptr e);
  /// Coordinator serial section: merge outboxes, resolve cross-rank
  /// effects, then either lay out the next window or stop the engine.
  void coordinate(Simulator& sim);
  void merge_and_resolve(Simulator& sim);
  void process_window(Simulator& sim, int wid);
  void run_rank(Simulator& sim, Worker& me, Rank rank);
  [[nodiscard]] double global_now() const noexcept;
};

}  // namespace cdc::minimpi
