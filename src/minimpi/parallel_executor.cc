// The simulator's event loop: conservative time windows over per-rank
// shards (DESIGN.md §15).
//
// Window protocol: the coordinator (worker 0, the caller's thread) merges
// staged cross-rank deliveries into the per-rank heaps, resolves
// collective completions and rank kills, computes T_min = the earliest
// pending event time, and opens the window [T_min, T_min + L) where L is
// the lookahead — Config::base_latency, the minimum cross-rank message
// latency (jitter and fault-plan delays only ever add). Every rank with an
// event below the horizon goes on the ready list; workers claim ranks from
// contiguous per-worker slices by atomic cursor, stealing from other
// slices once their own is dry. A claimed rank is drained to the horizon
// by one worker, so all of its shard state stays owner-serialized; sends
// it performs land at time >= horizon (the lookahead guarantee), are
// staged in the worker's outbox, and enter the destination heap only at
// the next quiesced merge. Determinism: every event carries a
// (time, origin_seq, origin_rank) key drawn during its origin rank's own
// deterministic execution, keys are unique, and each heap pops in strict
// key order — so per-rank application order is a pure function of the
// seed, independent of worker count, steal pattern, and thread timing.
// One worker is the same loop with a one-participant barrier, run on the
// caller's thread.
#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "minimpi/parallel_state.h"
#include "minimpi/simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cdc::minimpi {

namespace {

/// Output `index` of the splitmix64 generator seeded with `seed`:
/// statistically independent per-rank streams from one run seed.
std::uint64_t mix64(std::uint64_t seed, std::uint64_t index) noexcept {
  return support::splitmix64(seed + support::kGoldenGamma * (index + 1));
}

}  // namespace

thread_local Simulator::ParallelState::Worker*
    Simulator::ParallelState::tls_worker = nullptr;

// --- Engine ---------------------------------------------------------------

Simulator::Stats Simulator::run() {
  CDC_CHECK_MSG(!running_, "run() is not reentrant");
  static_assert(Config::base_latency > 0.0,
                "the simulator needs base_latency > 0 — it is the "
                "conservative lookahead");
  ParallelState ps;
  // More workers than ranks would only contend on the ready list.
  ps.workers = std::clamp(config_.workers, 1, size());
  ps.lookahead = Config::base_latency;
  return ps.drive(*this);
}

Simulator::Stats Simulator::ParallelState::drive(Simulator& sim) {
  // However the run ends — normally or by an exception from a rank
  // program or a tool hook — the simulator must not keep pointing at this
  // state once it is gone.
  struct Detach {
    Simulator& sim;
    ~Detach() {
      sim.par_ = nullptr;
      sim.running_ = false;
    }
  } detach{sim};
  sim.running_ = true;
  const int nranks = sim.size();
  shards.resize(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    Shard& s = shards[static_cast<std::size_t>(r)];
    s.noise = support::Xoshiro256(
        mix64(sim.config_.noise_seed, static_cast<std::uint64_t>(r)));
    s.fault_rng = support::Xoshiro256(
        mix64(sim.config_.faults.seed ^ 0xfa17fa17fa17fa17ull,
              static_cast<std::uint64_t>(r) + 0x10001));
  }
  worker_state.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w)
    worker_state.push_back(std::make_unique<Worker>());
  cursors = std::make_unique<Cursor[]>(static_cast<std::size_t>(workers));
  ready.reserve(static_cast<std::size_t>(nranks));

  sim.par_ = this;
  sim.hooks_->on_parallel_start(workers);

  for (int r = 0; r < nranks; ++r) {
    auto& ctx = sim.ranks_[static_cast<std::size_t>(r)];
    CDC_CHECK_MSG(ctx.task.valid(), "rank has no program installed");
    sim.schedule(0.0, Simulator::EventType::kResume, r, ctx.task.handle());
  }
  for (const RankKill& kill : sim.config_.faults.kills) {
    CDC_CHECK_MSG(kill.rank >= 0 && kill.rank < nranks,
                  "fault plan kills a rank outside the communicator");
    CDC_CHECK_MSG(kill.time >= 0.0, "rank kill scheduled before t=0");
    sim.schedule(kill.time, Simulator::EventType::kKill, kill.rank);
  }

  {
    std::barrier<> window_barrier(workers);
    sync = &window_barrier;
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w)
      pool.emplace_back([this, &sim, w] { worker_loop(sim, w); });
    worker_loop(sim, 0);  // the caller's thread is worker 0 / coordinator
    for (auto& t : pool) t.join();
    sync = nullptr;
  }

  // The pool is joined, so nothing touches the shards any more.
  if (worker_failed.load(std::memory_order_acquire))
    std::rethrow_exception(error);

  // Merge the per-shard tallies, in rank order. This is the only place
  // shard stats are summed — the hot path never touches an atomic.
  for (const Shard& s : shards) {
    sim.stats_.messages_sent += s.stats.messages_sent;
    sim.stats_.receive_events_delivered += s.stats.receive_events_delivered;
    sim.stats_.mf_calls += s.stats.mf_calls;
    sim.stats_.unmatched_tests += s.stats.unmatched_tests;
    sim.stats_.scheduler_events += s.stats.scheduler_events;
    sim.stats_.mf_failures += s.stats.mf_failures;
    sim.stats_.ranks_failed += s.stats.ranks_failed;
    sim.stats_.max_queue_depth =
        std::max(sim.stats_.max_queue_depth, s.stats.max_queue_depth);
    sim.stats_.unexpected_scanned += s.stats.unexpected_scanned;
    sim.stats_.irecv_scanned += s.stats.irecv_scanned;
    sim.stats_.max_unexpected =
        std::max(sim.stats_.max_unexpected, s.stats.max_unexpected);
    sim.fault_stats_.delay_spikes += s.fault_stats.delay_spikes;
    sim.fault_stats_.reorder_bursts += s.fault_stats.reorder_bursts;
    sim.fault_stats_.burst_messages += s.fault_stats.burst_messages;
    sim.fault_stats_.duplicates_injected += s.fault_stats.duplicates_injected;
    sim.fault_stats_.duplicates_dropped += s.fault_stats.duplicates_dropped;
    sim.fault_stats_.stalls += s.fault_stats.stalls;
    sim.fault_stats_.stall_seconds += s.fault_stats.stall_seconds;
    sim.fault_stats_.rank_kills += s.fault_stats.rank_kills;
  }
  sim.failed_count_ = failed_count.load(std::memory_order_relaxed);

  CDC_CHECK_MSG(sim.fault_stats_.duplicates_dropped ==
                    sim.fault_stats_.duplicates_injected,
                "a transport duplicate leaked past channel dedup");
  bool deadlocked = false;
  for (int r = 0; r < nranks; ++r) {
    const auto& ctx = sim.ranks_[static_cast<std::size_t>(r)];
    if (!ctx.finished && !ctx.failed) deadlocked = true;
    sim.stats_.end_time = std::max(sim.stats_.end_time, ctx.time);
    // The slab only grows when every slot is live, so its size is the
    // rank's high-water mark.
    sim.stats_.max_live_requests = std::max<std::uint64_t>(
        sim.stats_.max_live_requests, ctx.recv_slots.size());
  }
  // Likewise the message slab; a slot not on a free list still holds a
  // message nobody received.
  sim.stats_.max_live_messages = messages.size();
  std::uint64_t unreceived = messages.size() - free_messages.size();
  for (const auto& w : worker_state) unreceived -= w->freed_messages.size();
  sim.stats_.unreceived_messages = unreceived;
  if (deadlocked) {
    sim.describe_stuck_ranks();
    sim.hooks_->on_deadlock();
    CDC_CHECK_MSG(false, "simulation deadlocked");
  }
  sim.now_ = sim.stats_.end_time;

  sim.emit_obs_stats();
  if (obs::enabled()) {
    std::uint64_t steals = 0;
    std::uint64_t idle = 0;
    for (const auto& w : worker_state) {
      steals += w->steals;
      idle += w->idle_windows;
      obs::histogram("sim.exec.worker_events").record(w->total_events);
    }
    obs::counter("sim.exec.steals").add(steals);
    // A "barrier wait" is a worker arriving at the epoch barrier with
    // nothing processed — the idle-imbalance signal, not mere arrivals.
    obs::counter("sim.exec.barrier_waits").add(idle);
    obs::counter("sim.exec.horizon_advances").add(windows);
    obs::histogram("sim.exec.workers")
        .record(static_cast<std::uint64_t>(workers));
  }
  return sim.stats_;
}

void Simulator::ParallelState::fail(std::exception_ptr e) {
  {
    std::lock_guard<std::mutex> lock(error_mu);
    if (!error) error = std::move(e);
  }
  worker_failed.store(true, std::memory_order_release);
}

void Simulator::ParallelState::worker_loop(Simulator& sim, int wid) {
  tls_worker = worker_state[static_cast<std::size_t>(wid)].get();
  for (;;) {
    if (wid == 0) {
      // The coordinator runs tool hooks and resumes rank coroutines (the
      // terminal drain's failed waits); an exception from either stops
      // the engine like a worker's does, so the pool still joins.
      try {
        coordinate(sim);
      } catch (...) {
        fail(std::current_exception());
        stop.store(true, std::memory_order_release);
      }
    }
    sync->arrive_and_wait();  // window layout published / stop decided
    if (stop.load(std::memory_order_acquire)) break;
    try {
      process_window(sim, wid);
    } catch (...) {
      // Keep participating in the barriers so nobody hangs; the
      // coordinator turns the flag into a stop at the next window.
      fail(std::current_exception());
    }
    sync->arrive_and_wait();  // window quiesced
  }
  tls_worker = nullptr;
}

void Simulator::ParallelState::merge_and_resolve(Simulator& sim) {
  // Slots freed in the window just ended become reusable, then the staged
  // messages are parked in the slab and their deliveries drained into the
  // destination heaps, in worker order. Arrival order into a heap is
  // irrelevant — the (time, oseq, orank) keys alone decide pop order — so
  // this loop need not be deterministic, but it is anyway.
  for (auto& wptr : worker_state) {
    Worker& w = *wptr;
    free_messages.insert(free_messages.end(), w.freed_messages.begin(),
                         w.freed_messages.end());
    w.freed_messages.clear();
  }
  for (auto& wptr : worker_state) {
    Worker& w = *wptr;
    for (Outgoing& out : w.outbox) {
      out.event.msg = park(std::move(out.message));
      shard(out.event.rank).push(out.event);
    }
    w.outbox.clear();
  }
  // Publish kill effects so live_count() is exact before collective
  // completion re-runs.
  sim.failed_count_ = failed_count.load(std::memory_order_relaxed);
  if (collective_dirty.exchange(false, std::memory_order_acq_rel)) {
    sim.complete_barrier_if_ready();
    sim.complete_allreduce_if_ready();
  }
}

double Simulator::ParallelState::global_now() const noexcept {
  double t = 0.0;
  for (const Shard& s : shards) t = std::max(t, s.now);
  return t;
}

void Simulator::ParallelState::coordinate(Simulator& sim) {
  if (worker_failed.load(std::memory_order_acquire)) {
    stop.store(true, std::memory_order_release);
    return;
  }
  merge_and_resolve(sim);
  if (!first_window) {
    ++windows;
    // The previous window is quiesced: tools flush deferred I/O here, in
    // deterministic order.
    sim.hooks_->on_window(horizon);
  }
  first_window = false;

  for (;;) {
    double tmin = std::numeric_limits<double>::infinity();
    for (const Shard& s : shards)
      if (!s.heap.empty()) tmin = std::min(tmin, s.heap.top().time);
    if (tmin != std::numeric_limits<double>::infinity()) {
      horizon = tmin + lookahead;
      obs::publish_virtual_now(tmin);
      break;
    }

    // Terminal drain ladder: re-poll pending MF calls, then let the tool
    // change its own state (on_stall — the replayer releases
    // partial-record gating here, bridging gaps left by killed ranks or
    // truncated records), then shrink failed waits (ULFM); give up when
    // nothing moves. on_stall returns true only after a state change and
    // each shrink fails at least one call, so the ladder terminates.
    bool any_pending_mf = false;
    for (const auto& ctx : sim.ranks_)
      any_pending_mf =
          any_pending_mf || (!ctx.finished && !ctx.failed && ctx.mf_active);
    if (!any_pending_mf) {
      sim.hooks_->on_window(global_now());
      stop.store(true, std::memory_order_release);
      return;
    }
    std::uint64_t progress = 0;
    for (const Shard& s : shards)
      progress += s.stats.receive_events_delivered + s.stats.unmatched_tests;
    if (progress == last_progress) {
      if (!sim.hooks_->on_stall() && !sim.shrink_failed_waits()) {
        // Genuinely stuck; drive() falls through to the deadlock report.
        sim.hooks_->on_window(global_now());
        stop.store(true, std::memory_order_release);
        return;
      }
      last_progress = ~std::uint64_t{0};
    } else {
      last_progress = progress;
    }
    const double gnow = global_now();
    for (int r = 0; r < sim.size(); ++r) {
      auto& ctx = sim.ranks_[static_cast<std::size_t>(r)];
      if (!ctx.finished && !ctx.failed && ctx.mf_active &&
          !ctx.mf_poll_scheduled) {
        ctx.mf_poll_scheduled = true;
        sim.schedule(gnow, Simulator::EventType::kPoll, r);
      }
    }
    // shrink_failed_waits / on_stall resumed continuations inline on this
    // thread: pick up anything they sent or resolved before rescanning.
    merge_and_resolve(sim);
  }

  // Lay out the window: ready ranks in rank order, partitioned into
  // contiguous per-worker slices; cursors reset for the claim/steal race.
  ready.clear();
  for (int r = 0; r < sim.size(); ++r) {
    const Shard& s = shards[static_cast<std::size_t>(r)];
    if (!s.heap.empty() && s.heap.top().time < horizon) ready.push_back(r);
  }
  const std::size_t n = ready.size();
  const std::size_t nw = static_cast<std::size_t>(workers);
  const std::size_t base = n / nw;
  const std::size_t rem = n % nw;
  std::size_t off = 0;
  for (std::size_t i = 0; i < nw; ++i) {
    Worker& w = *worker_state[i];
    w.slice_begin = off;
    w.slice_size = base + (i < rem ? 1 : 0);
    off += w.slice_size;
    cursors[i].next.store(0, std::memory_order_relaxed);
  }
}

void Simulator::ParallelState::process_window(Simulator& sim, int wid) {
  Worker& me = *worker_state[static_cast<std::size_t>(wid)];
  me.window_events = 0;
  for (int v = 0; v < workers; ++v) {
    const int victim = (wid + v) % workers;
    Worker& vw = *worker_state[static_cast<std::size_t>(victim)];
    for (;;) {
      const std::size_t idx =
          cursors[victim].next.fetch_add(1, std::memory_order_relaxed);
      if (idx >= vw.slice_size) break;
      if (victim != wid) ++me.steals;
      run_rank(sim, me, ready[vw.slice_begin + idx]);
    }
  }
  me.total_events += me.window_events;
  if (me.window_events == 0) ++me.idle_windows;
  static obs::Counter& obs_events = obs::counter("sim.scheduler_events");
  obs_events.add(me.window_events);
}

void Simulator::ParallelState::run_rank(Simulator& sim, Worker& me,
                                        Rank rank) {
  Shard& s = shard(rank);
  auto& ctx = sim.ranks_[static_cast<std::size_t>(rank)];
  while (!s.heap.empty() && s.heap.top().time < horizon) {
    PEvent ev = s.heap.pop();
    // No monotonicity CHECK here: a kill-triggered collective completion
    // can release survivors below an already-applied event time. The
    // inversion is itself deterministic, so clamping keeps worker-count
    // invariance (DESIGN.md §15).
    s.now = std::max(s.now, ev.time);
    ++s.stats.scheduler_events;
    ++me.window_events;

    switch (ev.type) {
      case Simulator::EventType::kResume:
        if (ctx.failed) break;
        sim.resume_rank(rank, ev.handle, ev.time);
        break;
      case Simulator::EventType::kDeliver: {
        // Transport dedup against the receiver-side per-source sequence:
        // per-channel delivery is non-overtaking, so a non-increasing
        // value is a duplicate copy.
        const Message& msg = messages[ev.msg];
        std::uint64_t& delivered =
            channel(s.recv_channels, msg.source).delivered_seq;
        if (msg.transport_seq <= delivered) {
          ++s.fault_stats.duplicates_dropped;
          me.freed_messages.push_back(ev.msg);
          break;
        }
        delivered = msg.transport_seq;
        // A dead destination consumes the arrival (keeping the duplicate
        // accounting exact) but is no longer there to match it.
        if (ctx.failed) {
          me.freed_messages.push_back(ev.msg);
          break;
        }
        sim.try_match_arrival(rank, ev.msg);
        break;
      }
      case Simulator::EventType::kPoll:
        if (ctx.failed) break;
        ctx.time = std::max(ctx.time, ev.time);
        sim.poll_mf(rank);
        break;
      case Simulator::EventType::kKill:
        sim.kill_rank(rank);
        break;
    }
  }
}

}  // namespace cdc::minimpi
