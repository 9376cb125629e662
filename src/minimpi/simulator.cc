#include "minimpi/simulator.h"

#include <algorithm>
#include <cmath>

#include "minimpi/parallel_state.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cdc::minimpi {

namespace {

/// Virtual seconds per tree level of a barrier or allreduce.
constexpr double kCollectiveHopCost = 1.0e-6;

// Fault-plan magnitudes (fault.h); the plan sets only the probabilities.
/// A delay spike's extra latency: uniform in [0.5, 1.5] x factor x
/// (base + jitter mean).
constexpr double kDelaySpikeFactor = 100.0;
/// Sends affected per reorder burst.
constexpr std::uint32_t kReorderBurstLength = 8;
/// Each burst message gets uniform extra latency in
/// [0, spread x (base + jitter mean)] — wide enough to scramble the
/// interleaving of every in-burst sender.
constexpr double kReorderBurstSpread = 30.0;
/// A rank stall's length: uniform in [0.5, 1.5] x mean seconds.
constexpr double kStallMean = 5.0e-5;

bool envelope_matches(Rank source_spec, int tag_spec, Rank source,
                      int tag) noexcept {
  return (source_spec == kAnySource || source_spec == source) &&
         (tag_spec == kAnyTag || tag_spec == tag);
}

}  // namespace

// --- Awaiters -------------------------------------------------------------

void ComputeAwaiter::await_suspend(std::coroutine_handle<> handle) {
  auto& ctx = sim->ranks_[static_cast<std::size_t>(rank)];
  sim->schedule(ctx.time + seconds, Simulator::EventType::kResume, rank,
                handle);
}

void MFAwaiter::await_suspend(std::coroutine_handle<> handle) {
  auto& ctx = sim->ranks_[static_cast<std::size_t>(rank)];
  CDC_CHECK_MSG(!ctx.mf_active, "rank issued a second MF call while pending");
  ++sim->par_->shard(rank).stats.mf_calls;

  // Resolve every handle to its slab slot once; the poll loops then index
  // slots directly. A receive whose slot no longer holds it was delivered
  // (its slot may already hold a later receive) and is inactive, as in
  // MPI. Send-only MF calls complete immediately (buffered-send model) and
  // do not pass through the tool: the paper records receives only.
  const std::vector<std::uint64_t>& request_ids = ctx.mf_request_ids;
  auto& slots = ctx.mf_slots;
  slots.clear();
  bool any_recv = false;
  bool any_send = false;
  std::size_t active = 0;
  for (const std::uint64_t id : request_ids) {
    const std::uint64_t seq = id >> Simulator::kSlotBits;
    const std::uint32_t slot = Simulator::slot_of(id);
    if (seq == 0 || seq > ctx.last_post ||
        (slot != Simulator::kNoSlot && slot >= ctx.recv_slots.size())) {
      char msg[80];
      std::snprintf(msg, sizeof msg,
                    "rank %d passed an MF call a request it never issued",
                    rank);
      CDC_CHECK_MSG(false, msg);
    }
    if (slot == Simulator::kNoSlot) {
      CDC_CHECK_MSG(!any_recv || request_ids.size() == 1,
                    "mixed send/recv MF request sets are unsupported");
      any_send = true;
      slots.push_back(Simulator::kNoSlot);
    } else if (ctx.recv_slots[slot].id == id) {
      any_recv = true;
      ++active;
      slots.push_back(slot);
    } else {
      any_recv = true;
      slots.push_back(Simulator::kNoSlot);
    }
  }
  // A call whose requests are all sends or all inactive completes
  // immediately.
  if (active == 0) {
    result.flag = true;
    sim->schedule(ctx.time + sim->config_.mpi_call_cost,
                  Simulator::EventType::kResume, rank, handle);
    return;
  }
  CDC_CHECK_MSG(!any_send, "mixed send/recv MF request sets are unsupported");

  ctx.mf_active = true;
  ctx.mf = this;
  ctx.mf_continuation = handle;
  ctx.mf_poll_scheduled = true;
  double call_cost = sim->config_.mpi_call_cost;
  if (sim->hooks_ != &sim->default_hooks_)
    call_cost += sim->config_.tool_call_cost;
  sim->schedule(ctx.time + call_cost, Simulator::EventType::kPoll, rank);
}

void BarrierAwaiter::await_suspend(std::coroutine_handle<> handle) {
  auto& ctx = sim->ranks_[static_cast<std::size_t>(rank)];
  CDC_CHECK(!ctx.in_barrier && ctx.allreduce == nullptr);
  ctx.in_barrier = true;
  ctx.collective_continuation = handle;
  // Entry is rank-local; completion is a cross-rank effect and is resolved
  // only by the coordinator at the window barrier.
  sim->par_->barrier_waiting.fetch_add(1, std::memory_order_relaxed);
  sim->par_->collective_dirty.store(true, std::memory_order_release);
}

void AllreduceAwaiter::await_suspend(std::coroutine_handle<> handle) {
  auto& ctx = sim->ranks_[static_cast<std::size_t>(rank)];
  CDC_CHECK(!ctx.in_barrier && ctx.allreduce == nullptr);
  ctx.allreduce = this;
  ctx.collective_continuation = handle;
  sim->allreduce_inputs_[static_cast<std::size_t>(rank)] =
      std::move(contribution);
  sim->par_->allreduce_waiting.fetch_add(1, std::memory_order_relaxed);
  sim->par_->collective_dirty.store(true, std::memory_order_release);
}

// --- Comm -----------------------------------------------------------------

int Comm::size() const noexcept { return sim_->size(); }
double Comm::now() const noexcept {
  return sim_->ranks_[static_cast<std::size_t>(rank_)].time;
}

Request Comm::isend(Rank dst, int tag, std::span<const std::uint8_t> data) {
  return sim_->post_isend(rank_, dst, tag, data);
}

Request Comm::irecv(Rank source, int tag) {
  return sim_->post_irecv(rank_, source, tag);
}

MFAwaiter Comm::make_mf(MFKind kind, std::span<const Request> requests,
                        CallsiteId callsite) {
  std::vector<std::uint64_t>& ids =
      sim_->ranks_[static_cast<std::size_t>(rank_)].mf_request_ids;
  ids.clear();
  for (const Request& r : requests) {
    CDC_CHECK_MSG(r.valid(), "invalid request passed to an MF call");
    ids.push_back(r.id);
  }
  CDC_CHECK_MSG(!ids.empty(), "empty MF request set");
  return MFAwaiter{sim_, rank_, kind, callsite, {}};
}

MFAwaiter Comm::wait(Request request, CallsiteId callsite) {
  return make_mf(MFKind::kWait, {&request, 1}, callsite);
}
MFAwaiter Comm::waitall(std::span<const Request> requests,
                        CallsiteId callsite) {
  return make_mf(MFKind::kWaitall, requests, callsite);
}
MFAwaiter Comm::waitany(std::span<const Request> requests,
                        CallsiteId callsite) {
  return make_mf(MFKind::kWaitany, requests, callsite);
}
MFAwaiter Comm::waitsome(std::span<const Request> requests,
                         CallsiteId callsite) {
  return make_mf(MFKind::kWaitsome, requests, callsite);
}
MFAwaiter Comm::test(Request request, CallsiteId callsite) {
  return make_mf(MFKind::kTest, {&request, 1}, callsite);
}
MFAwaiter Comm::testall(std::span<const Request> requests,
                        CallsiteId callsite) {
  return make_mf(MFKind::kTestall, requests, callsite);
}
MFAwaiter Comm::testany(std::span<const Request> requests,
                        CallsiteId callsite) {
  return make_mf(MFKind::kTestany, requests, callsite);
}
MFAwaiter Comm::testsome(std::span<const Request> requests,
                         CallsiteId callsite) {
  return make_mf(MFKind::kTestsome, requests, callsite);
}

// --- Simulator ------------------------------------------------------------

Simulator::Simulator(const Config& config, ToolHooks* hooks)
    : config_(config),
      hooks_(hooks != nullptr ? hooks : &default_hooks_) {
  CDC_CHECK(config.num_ranks >= 1);
  ranks_.resize(static_cast<std::size_t>(config.num_ranks));
  allreduce_inputs_.resize(ranks_.size());
  for (int r = 0; r < config.num_ranks; ++r)
    ranks_[static_cast<std::size_t>(r)].comm =
        std::make_unique<Comm>(this, r);
}

Simulator::~Simulator() = default;

void Simulator::set_program(const Program& program) {
  for (int r = 0; r < size(); ++r) set_program(r, program);
}

void Simulator::set_program(Rank rank, const Program& program) {
  CDC_CHECK(rank >= 0 && rank < size());
  CDC_CHECK_MSG(!running_, "set_program during run()");
  auto& ctx = ranks_[static_cast<std::size_t>(rank)];
  // A lambda coroutine's frame refers to the closure object itself, so the
  // callable must outlive the coroutine: store it, then invoke the stored
  // copy.
  ctx.program = program;
  ctx.task = ctx.program(*ctx.comm);
  CDC_CHECK(ctx.task.valid());
}

void Simulator::schedule(double time, EventType type, Rank rank,
                         std::coroutine_handle<> handle) {
  // Rank stalls pause a rank's resume/poll — never a network delivery,
  // and never a fault-plan kill.
  if (type == EventType::kResume || type == EventType::kPoll)
    time = maybe_stall(time, rank);
  // Every event scheduled here targets the rank whose context is
  // executing — its own shard, owner-serialized (or coordinator-serialized
  // at the window barrier). The key is drawn from that shard's counter, so
  // it never depends on worker interleaving.
  CDC_CHECK(type != EventType::kDeliver);
  ParallelState::Shard& shard = par_->shard(rank);
  ParallelState::PEvent ev;
  ev.time = time;
  ev.oseq = shard.next_seq++;
  ev.orank = rank;
  ev.type = type;
  ev.rank = rank;
  ev.handle = handle;
  shard.push(ev);
}

double Simulator::maybe_stall(double time, Rank rank) {
  const FaultPlan& plan = config_.faults;
  if (plan.stall_probability <= 0.0 || rank < 0) return time;
  ParallelState::Shard& shard = par_->shard(rank);
  support::Xoshiro256& rng = shard.fault_rng;
  if (rng.uniform() >= plan.stall_probability) return time;
  const double stall = kStallMean * (0.5 + rng.uniform());
  FaultStats& tallies = shard.fault_stats;
  ++tallies.stalls;
  tallies.stall_seconds += stall;
  obs::trace_instant("fault.stall", rank);
  hooks_->on_fault(FaultKind::kRankStall, rank);
  return time + stall;
}

double Simulator::apply_message_faults(double latency, Rank src, Rank dst) {
  const FaultPlan& plan = config_.faults;
  const double scale = config_.base_latency + config_.jitter_mean;
  ParallelState::Shard& shard = par_->shard(src);
  support::Xoshiro256& rng = shard.fault_rng;
  FaultStats& tallies = shard.fault_stats;
  std::uint32_t& burst_remaining = shard.burst_remaining;
  if (plan.delay_spike_probability > 0.0 &&
      rng.uniform() < plan.delay_spike_probability) {
    latency += kDelaySpikeFactor * scale * (0.5 + rng.uniform());
    ++tallies.delay_spikes;
    obs::trace_instant("fault.delay_spike", dst);
    hooks_->on_fault(FaultKind::kDelaySpike, dst);
  }
  if (plan.reorder_burst_probability > 0.0) {
    if (burst_remaining == 0 &&
        rng.uniform() < plan.reorder_burst_probability) {
      burst_remaining = kReorderBurstLength;
      ++tallies.reorder_bursts;
    }
    if (burst_remaining > 0) {
      --burst_remaining;
      latency += rng.uniform() * kReorderBurstSpread * scale;
      ++tallies.burst_messages;
      obs::trace_instant("fault.reorder_burst", dst);
      hooks_->on_fault(FaultKind::kReorderBurst, dst);
    }
  }
  return latency;
}

Request Simulator::post_isend(Rank src, Rank dst, int tag,
                              std::span<const std::uint8_t> data) {
  CDC_CHECK(dst >= 0 && dst < size());
  CDC_CHECK(tag >= 0);
  auto& ctx = ranks_[static_cast<std::size_t>(src)];
  ParallelState::Shard& shard = par_->shard(src);
  ParallelState::Worker* worker = ParallelState::tls_worker;
  CDC_CHECK_MSG(worker != nullptr, "send from outside the worker pool");

  const std::uint64_t piggyback = hooks_->on_send(src);
  // The message is written once, in place in the outbox; the merge moves
  // it into the slab.
  std::vector<ParallelState::Outgoing>& outbox = worker->outbox;
  const std::size_t staged = outbox.size();
  Message& msg = outbox.emplace_back().message;
  msg.source = src;
  msg.tag = tag;
  msg.piggyback = piggyback;
  msg.payload.assign(data);
  if (hooks_ != &default_hooks_) ctx.time += config_.piggyback_send_cost;

  // Latency noise permutes cross-sender arrival interleavings; per-channel
  // arrival order is forced non-overtaking (MPI ordering guarantee). Every
  // draw and counter is the sender shard's, so the schedule is a function
  // of this rank's own execution order only.
  double latency =
      config_.base_latency + shard.noise.exponential(config_.jitter_mean);
  if (config_.faults.enabled())
    latency = apply_message_faults(latency, src, dst);
  ParallelState::SendChannel& channel =
      ParallelState::channel(shard.send_channels, dst);
  msg.transport_seq = ++channel.send_seq;
  double arrival = ctx.time + latency;
  if (arrival <= channel.last_arrival) arrival = channel.last_arrival + 1e-12;
  channel.last_arrival = arrival;

  if (config_.faults.duplicate_probability > 0.0 &&
      shard.fault_rng.uniform() < config_.faults.duplicate_probability) {
    // The copy carries the original's transport sequence number — the
    // dedup key — and trails it on the (non-overtaking) channel. It takes
    // its key before the original does.
    double dup_arrival =
        arrival + shard.fault_rng.exponential(config_.jitter_mean);
    if (dup_arrival <= channel.last_arrival)
      dup_arrival = channel.last_arrival + 1e-12;
    channel.last_arrival = dup_arrival;
    outbox.push_back(outbox[staged]);
    ParallelState::stage_delivery(outbox.back().event, dup_arrival, shard,
                                  src, dst);
    ++shard.fault_stats.duplicates_injected;
    obs::trace_instant("fault.duplicate", dst);
    hooks_->on_fault(FaultKind::kDuplicate, dst);
  }
  ParallelState::stage_delivery(outbox[staged].event, arrival, shard, src,
                                dst);
  ++shard.stats.messages_sent;

  // Buffered-send model: locally complete on creation, so nothing to keep.
  return Request{(++ctx.last_post << kSlotBits) | kNoSlot};
}

Request Simulator::post_irecv(Rank rank, Rank source, int tag) {
  CDC_CHECK(source == kAnySource || (source >= 0 && source < size()));
  auto& ctx = ranks_[static_cast<std::size_t>(rank)];
  std::uint32_t slot;
  if (!ctx.free_slots.empty()) {
    slot = ctx.free_slots.back();
    ctx.free_slots.pop_back();
  } else {
    CDC_CHECK_MSG(ctx.recv_slots.size() < kNoSlot,
                  "too many receives live on one rank");
    slot = static_cast<std::uint32_t>(ctx.recv_slots.size());
    ctx.recv_slots.emplace_back();
  }
  const std::uint64_t id = (++ctx.last_post << kSlotBits) | slot;
  RecvSlot& posted = ctx.recv_slots[slot];
  posted.id = id;
  posted.source_spec = source;
  posted.tag_spec = tag;

  // A newly posted receive matches the earliest compatible unexpected
  // message (MPI matching rule).
  auto& shard = par_->shard(rank);
  for (auto it = ctx.unexpected.begin(); it != ctx.unexpected.end(); ++it) {
    const Message& msg = message(*it);
    if (envelope_matches(source, tag, msg.source, msg.tag)) {
      shard.stats.irecv_scanned += (it - ctx.unexpected.begin()) + 1;
      posted.match_seq = shard.next_match_seq++;
      posted.message = *it;
      ctx.unexpected.erase(it);
      return Request{id};
    }
  }
  shard.stats.irecv_scanned += ctx.unexpected.size();
  ctx.posted_recvs.push_back(id);
  return Request{id};
}

Simulator::Message& Simulator::message(MessageSlot slot) noexcept {
  return par_->messages[slot];
}

void Simulator::insert_unexpected(Rank rank, RankCtx& ctx, MessageSlot slot) {
  // Keep the unexpected queue ordered by arrival (displaced messages are
  // re-inserted at their original position).
  const std::uint64_t arrival_seq = message(slot).arrival_seq;
  auto it = ctx.unexpected.end();
  while (it != ctx.unexpected.begin() &&
         message(*std::prev(it)).arrival_seq > arrival_seq)
    --it;
  ctx.unexpected.insert(it, slot);
  std::uint64_t& deepest = par_->shard(rank).stats.max_unexpected;
  deepest = std::max<std::uint64_t>(deepest, ctx.unexpected.size());
}

void Simulator::rematch_unexpected(Rank rank, RankCtx& ctx) {
  // Re-run eager matching after a replay-tool rebinding disturbed the
  // request/message association: process arrivals in order against posted
  // receives in post order — the same rule the original arrivals followed.
  for (auto msg_it = ctx.unexpected.begin();
       msg_it != ctx.unexpected.end();) {
    const Message& msg = message(*msg_it);
    bool matched = false;
    for (auto req_it = ctx.posted_recvs.begin();
         req_it != ctx.posted_recvs.end(); ++req_it) {
      auto& req = ctx.recv_slots[slot_of(*req_it)];
      if (envelope_matches(req.source_spec, req.tag_spec, msg.source,
                           msg.tag)) {
        req.match_seq = par_->shard(rank).next_match_seq++;
        req.message = *msg_it;
        ctx.posted_recvs.erase(req_it);
        msg_it = ctx.unexpected.erase(msg_it);
        matched = true;
        break;
      }
    }
    if (!matched) ++msg_it;
  }
}

void Simulator::try_match_arrival(Rank rank, MessageSlot mslot) {
  auto& ctx = ranks_[static_cast<std::size_t>(rank)];
  Message& arrived = message(mslot);
  arrived.arrival_seq = par_->shard(rank).next_seq++;
  for (auto it = ctx.posted_recvs.begin(); it != ctx.posted_recvs.end();
       ++it) {
    const std::uint32_t slot = slot_of(*it);
    auto& req = ctx.recv_slots[slot];
    if (envelope_matches(req.source_spec, req.tag_spec, arrived.source,
                         arrived.tag)) {
      req.match_seq = par_->shard(rank).next_match_seq++;
      req.message = mslot;
      ctx.posted_recvs.erase(it);
      // Wake a pending MF call that covers this request.
      if (ctx.mf_active && !ctx.mf_poll_scheduled) {
        const auto& slots = ctx.mf_slots;
        if (std::find(slots.begin(), slots.end(), slot) != slots.end()) {
          ctx.mf_poll_scheduled = true;
          schedule(par_->shard(rank).now, EventType::kPoll, rank);
        }
      }
      return;
    }
  }
  // Unexpected arrival. It may still be deliverable by a replay tool on an
  // interchangeable request, so wake a pending MF call whose live
  // requests could accept it.
  if (ctx.mf_active && !ctx.mf_poll_scheduled) {
    for (const std::uint32_t slot : ctx.mf_slots) {
      if (slot == kNoSlot) continue;
      const auto& req = ctx.recv_slots[slot];
      if (envelope_matches(req.source_spec, req.tag_spec, arrived.source,
                           arrived.tag)) {
        ctx.mf_poll_scheduled = true;
        schedule(par_->shard(rank).now, EventType::kPoll, rank);
        break;
      }
    }
  }
  insert_unexpected(rank, ctx, mslot);
}

void Simulator::poll_mf(Rank rank) {
  auto& ctx = ranks_[static_cast<std::size_t>(rank)];
  ctx.mf_poll_scheduled = false;
  if (!ctx.mf_active) return;
  ctx.time = std::max(ctx.time, par_->shard(rank).now);
  MFAwaiter& mf = *ctx.mf;
  // Position i of the call is live receive `slots[i]`, or kNoSlot.
  const std::vector<std::uint32_t>& slots = ctx.mf_slots;
  const std::size_t n = slots.size();
  ParallelState::Worker* worker = ParallelState::tls_worker;
  CDC_CHECK_MSG(worker != nullptr, "poll from outside the worker pool");
  // The worker's lists, reused across polls: a steady-state poll
  // allocates nothing.
  ParallelState::PollScratch& scratch = worker->poll;

  std::vector<Candidate>& candidates = scratch.candidates;
  candidates.clear();
  // For bound candidates: the owning receive's slot; for unbound: the
  // message's slab slot (to locate it in the unexpected queue).
  std::vector<std::uint64_t>& candidate_handle = scratch.candidate_handle;
  candidate_handle.clear();
  {
    // Matched-but-undelivered receives, in match order — the order an
    // untooled run would surface them ("first come, first served").
    auto& order = scratch.order;
    order.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (slots[i] == kNoSlot) continue;
      const auto& req = ctx.recv_slots[slots[i]];
      if (req.matched()) order.emplace_back(req.match_seq, i);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [seq, i] : order) {
      Message& msg = message(ctx.recv_slots[slots[i]].message);
      candidates.push_back(Candidate{i, msg.source, msg.tag, msg.piggyback,
                                     true, !msg.tool_sighted});
      msg.tool_sighted = true;
      candidate_handle.push_back(slots[i]);
    }
    // Unexpected arrivals compatible with a live request of the call (in
    // arrival order): deliverable by a replay tool via request remapping,
    // invisible to untooled MPI semantics.
    par_->shard(rank).stats.unexpected_scanned += ctx.unexpected.size();
    for (const MessageSlot mslot : ctx.unexpected) {
      Message& msg = message(mslot);
      for (std::size_t i = 0; i < n; ++i) {
        if (slots[i] == kNoSlot) continue;
        const auto& req = ctx.recv_slots[slots[i]];
        if (envelope_matches(req.source_spec, req.tag_spec, msg.source, msg.tag)) {
          candidates.push_back(Candidate{i, msg.source, msg.tag,
                                         msg.piggyback, false,
                                         !msg.tool_sighted});
          msg.tool_sighted = true;
          candidate_handle.push_back(mslot);
          break;
        }
      }
    }
  }

  const bool blocking = is_blocking(mf.kind);
  const std::size_t active_requests =
      n - static_cast<std::size_t>(std::count(slots.begin(), slots.end(),
                                              kNoSlot));
  SelectResult selection =
      hooks_->select(rank, mf.callsite, mf.kind, candidates,
                     active_requests, blocking);

  switch (selection.action) {
    case SelectResult::Action::kBlock:
      CDC_CHECK_MSG(hooks_ != &default_hooks_ || blocking,
                    "default hooks must not block a Test-family call");
      return;  // stays pending; a future arrival re-polls
    case SelectResult::Action::kNoMatch: {
      CDC_CHECK_MSG(!blocking, "Wait-family call cannot report no-match");
      mf.result.flag = false;
      hooks_->on_unmatched_test(rank, mf.callsite);
      ++par_->shard(rank).stats.unmatched_tests;
      break;
    }
    case SelectResult::Action::kDeliver: {
      CDC_CHECK_MSG(!selection.indices.empty(),
                    "kDeliver with an empty index list");
      // A single-delivery call takes the first selected index only.
      const std::span<const std::size_t> chosen(
          selection.indices.data(),
          is_multi_delivery(mf.kind) ? selection.indices.size() : 1);

      // Phase A: extract the selected messages, releasing their current
      // bindings.
      std::vector<MessageSlot>& messages = scratch.messages;
      messages.clear();
      std::vector<std::uint32_t>& origin_slot = scratch.origin_slot;
      origin_slot.clear();  // kNoSlot for unbound
      std::vector<bool>& seen = scratch.seen;
      seen.assign(candidates.size(), false);
      bool disturbed = false;
      for (const std::size_t ci : chosen) {
        CDC_CHECK_MSG(ci < candidates.size() && !seen[ci],
                      "selection index out of range or duplicated");
        seen[ci] = true;
        if (candidates[ci].bound) {
          const auto slot = static_cast<std::uint32_t>(candidate_handle[ci]);
          auto& req = ctx.recv_slots[slot];
          CDC_CHECK(req.matched() && !req.delivered);
          messages.push_back(req.message);
          req.message = kNoMessage;
          origin_slot.push_back(slot);
        } else {
          const auto mslot = static_cast<MessageSlot>(candidate_handle[ci]);
          auto it =
              std::find(ctx.unexpected.begin(), ctx.unexpected.end(), mslot);
          CDC_CHECK(it != ctx.unexpected.end());
          messages.push_back(mslot);
          ctx.unexpected.erase(it);
          origin_slot.push_back(kNoSlot);
          disturbed = true;
        }
      }

      // Phase B: assign each message to an undelivered request of the
      // call — its own request when possible (the untooled path), else the
      // first compatible interchangeable one (replay-tool remapping).
      std::vector<bool>& index_used = scratch.index_used;
      index_used.assign(n, false);
      mf.result.flag = true;
      mf.result.completions.reserve(messages.size());
      for (std::size_t k = 0; k < messages.size(); ++k) {
        Message& msg = message(messages[k]);
        std::size_t index = n;
        if (origin_slot[k] != kNoSlot) {
          for (std::size_t i = 0; i < n; ++i) {
            if (slots[i] == origin_slot[k] && !index_used[i]) {
              index = i;
              break;
            }
          }
        }
        if (index == n) {
          for (std::size_t i = 0; i < n; ++i) {
            if (index_used[i] || slots[i] == kNoSlot) continue;
            const auto& req = ctx.recv_slots[slots[i]];
            if (!req.delivered &&
                envelope_matches(req.source_spec, req.tag_spec, msg.source, msg.tag)) {
              index = i;
              break;
            }
          }
        }
        CDC_CHECK_MSG(index < n,
                      "no compatible request slot for a selected message");
        index_used[index] = true;
        auto& req = ctx.recv_slots[slots[index]];
        if (req.matched()) {
          // Displace the message MPI had matched here; it returns to the
          // unexpected queue at its original arrival position.
          const MessageSlot displaced = req.message;
          req.message = kNoMessage;
          insert_unexpected(rank, ctx, displaced);
          disturbed = true;
        } else if (slots[index] != origin_slot[k]) {
          // A remapped message can land on a receive MPI left unmatched
          // (posted after the one it matched); delivered, that receive
          // leaves the posted list, or a later arrival would match it.
          auto it = std::find(ctx.posted_recvs.begin(),
                              ctx.posted_recvs.end(), req.id);
          if (it != ctx.posted_recvs.end()) ctx.posted_recvs.erase(it);
        }
        req.delivered = true;
        Completion completion;
        completion.span_index = index;
        completion.source = msg.source;
        completion.tag = msg.tag;
        completion.piggyback = msg.piggyback;
        completion.payload = std::move(msg.payload);
        mf.result.completions.push_back(std::move(completion));
        ++par_->shard(rank).stats.receive_events_delivered;
        obs::trace_instant("recv.deliver", rank, "source",
                           static_cast<std::uint64_t>(
                               static_cast<std::uint32_t>(msg.source)));
        // Delivered: the slot returns to the free list at the next merge.
        worker->freed_messages.push_back(messages[k]);
      }

      // Phase C: requests that lost their message re-enter the posted
      // list (post order = id order), and arrivals re-match eagerly.
      if (disturbed) {
        for (const std::uint32_t slot : slots) {
          if (slot == kNoSlot) continue;
          const auto& req = ctx.recv_slots[slot];
          if (!req.delivered && !req.matched()) {
            auto it = ctx.posted_recvs.begin();
            while (it != ctx.posted_recvs.end() && *it < req.id) ++it;
            if (it == ctx.posted_recvs.end() || *it != req.id)
              ctx.posted_recvs.insert(it, req.id);
          }
        }
        rematch_unexpected(rank, ctx);
      }
      if (hooks_ != &default_hooks_)
        ctx.time += config_.tool_event_cost *
                    static_cast<double>(mf.result.completions.size());
      hooks_->on_deliver(rank, mf.callsite, mf.kind, mf.result.completions);

      // The delivered receives are done: their slots go back to the free
      // list, so a later irecv reuses them and an old handle of theirs
      // reads as inactive.
      for (const std::uint32_t slot : slots) {
        if (slot == kNoSlot) continue;
        RecvSlot& req = ctx.recv_slots[slot];
        if (!req.delivered) continue;
        req.id = 0;
        req.delivered = false;
        ctx.free_slots.push_back(slot);
      }
      break;
    }
  }

  ctx.mf_active = false;
  ctx.mf = nullptr;
  const std::coroutine_handle<> continuation = ctx.mf_continuation;
  ctx.mf_continuation = nullptr;
  continuation.resume();
  check_rank_done(rank);
}

void Simulator::resume_rank(Rank rank, std::coroutine_handle<> handle,
                            double time) {
  auto& ctx = ranks_[static_cast<std::size_t>(rank)];
  ctx.time = std::max(ctx.time, time);
  handle.resume();
  check_rank_done(rank);
}

void Simulator::check_rank_done(Rank rank) {
  auto& ctx = ranks_[static_cast<std::size_t>(rank)];
  if (!ctx.finished && ctx.task.handle().done()) {
    ctx.task.rethrow_if_failed();
    ctx.finished = true;
  }
}

void Simulator::complete_barrier_if_ready() {
  // Collectives complete over the survivors (ULFM shrink semantics):
  // failed ranks neither participate nor are waited for. This runs only on
  // the coordinator with every worker quiesced at the window barrier, so
  // the atomic entry counters are stable and the rank-order iteration
  // below is deterministic.
  const int waiting = par_->barrier_waiting.load(std::memory_order_acquire);
  if (live_count() == 0 || waiting != live_count()) return;
  par_->barrier_waiting.store(0, std::memory_order_relaxed);
  const double hops = std::ceil(std::log2(std::max(2, live_count())));
  double release = 0.0;
  for (const auto& ctx : ranks_)
    if (!ctx.failed) release = std::max(release, ctx.time);
  release += hops * kCollectiveHopCost;
  for (int r = 0; r < size(); ++r) {
    auto& ctx = ranks_[static_cast<std::size_t>(r)];
    if (!ctx.in_barrier) {
      CDC_CHECK(ctx.failed);
      continue;
    }
    ctx.in_barrier = false;
    schedule(release, EventType::kResume, r, ctx.collective_continuation);
    ctx.collective_continuation = nullptr;
  }
}

void Simulator::complete_allreduce_if_ready() {
  const int waiting = par_->allreduce_waiting.load(std::memory_order_acquire);
  if (live_count() == 0 || waiting != live_count()) return;
  par_->allreduce_waiting.store(0, std::memory_order_relaxed);

  // Elementwise sum in strict rank order: bit-reproducible regardless of
  // arrival timing. Failed ranks' contributions are excluded — the
  // survivor-communicator semantics of a post-shrink allreduce.
  std::size_t width = 0;
  for (int r = 0; r < size(); ++r)
    if (ranks_[static_cast<std::size_t>(r)].allreduce != nullptr) {
      width = allreduce_inputs_[static_cast<std::size_t>(r)].size();
      break;
    }
  std::vector<double> sum(width, 0.0);
  for (int r = 0; r < size(); ++r) {
    if (ranks_[static_cast<std::size_t>(r)].allreduce == nullptr) continue;
    const auto& input = allreduce_inputs_[static_cast<std::size_t>(r)];
    CDC_CHECK_MSG(input.size() == width,
                  "allreduce contributions differ in length");
    for (std::size_t i = 0; i < width; ++i) sum[i] += input[i];
  }

  const double hops = 2.0 * std::ceil(std::log2(std::max(2, live_count())));
  double release = 0.0;
  for (const auto& ctx : ranks_)
    if (!ctx.failed) release = std::max(release, ctx.time);
  release += hops * kCollectiveHopCost;
  for (int r = 0; r < size(); ++r) {
    auto& ctx = ranks_[static_cast<std::size_t>(r)];
    if (ctx.allreduce == nullptr) {
      CDC_CHECK(ctx.failed);
      continue;
    }
    ctx.allreduce->result = sum;
    ctx.allreduce = nullptr;
    allreduce_inputs_[static_cast<std::size_t>(r)].clear();
    schedule(release, EventType::kResume, r, ctx.collective_continuation);
    ctx.collective_continuation = nullptr;
  }
}

void Simulator::kill_rank(Rank rank) {
  auto& ctx = ranks_[static_cast<std::size_t>(rank)];
  if (ctx.failed || ctx.finished) return;  // nothing left to kill
  ctx.failed = true;
  par_->failed_count.fetch_add(1, std::memory_order_relaxed);
  ParallelState::Shard& shard = par_->shard(rank);
  ++shard.fault_stats.rank_kills;
  ++shard.stats.ranks_failed;
  obs::trace_instant("fault.rank_kill", rank);
  hooks_->on_fault(FaultKind::kRankKill, rank);

  // The dead process abandons whatever it was blocked in. Its coroutine is
  // simply never resumed again (the frame is reclaimed with the Task); its
  // pending requests and unexpected queue are frozen as-is.
  ctx.mf_active = false;
  ctx.mf = nullptr;
  ctx.mf_continuation = nullptr;
  ctx.mf_poll_scheduled = false;
  if (ctx.in_barrier) {
    ctx.in_barrier = false;
    ctx.collective_continuation = nullptr;
    par_->barrier_waiting.fetch_sub(1, std::memory_order_relaxed);
  }
  if (ctx.allreduce != nullptr) {
    ctx.allreduce = nullptr;
    ctx.collective_continuation = nullptr;
    allreduce_inputs_[static_cast<std::size_t>(rank)].clear();
    par_->allreduce_waiting.fetch_sub(1, std::memory_order_relaxed);
  }
  // Dropping a participant may complete a collective over survivors, but
  // that's a cross-rank effect: the coordinator resolves it at the next
  // window barrier.
  par_->collective_dirty.store(true, std::memory_order_release);
}

void Simulator::fail_mf(Rank rank, std::vector<Rank> failed_ranks) {
  auto& ctx = ranks_[static_cast<std::size_t>(rank)];
  CDC_CHECK(ctx.mf_active);
  MFAwaiter& mf = *ctx.mf;
  std::sort(failed_ranks.begin(), failed_ranks.end());
  failed_ranks.erase(std::unique(failed_ranks.begin(), failed_ranks.end()),
                     failed_ranks.end());
  mf.result.flag = false;
  mf.result.failed = true;
  mf.result.failed_ranks = std::move(failed_ranks);
  ++par_->shard(rank).stats.mf_failures;
  obs::trace_instant("mf.proc_failed", rank);

  ctx.mf_active = false;
  ctx.mf = nullptr;
  const std::coroutine_handle<> continuation = ctx.mf_continuation;
  ctx.mf_continuation = nullptr;
  continuation.resume();
  check_rank_done(rank);
}

bool Simulator::shrink_failed_waits() {
  // Called at the terminal drain: no event is pending and re-polling
  // made no progress, so no in-flight message can satisfy anything. A
  // pending receive whose sender died will never match; fail the covering
  // MF call so the application can shrink its wait set and carry on
  // instead of deadlocking.
  bool any_failed = false;
  for (int r = 0; r < size(); ++r) {
    auto& ctx = ranks_[static_cast<std::size_t>(r)];
    if (ctx.finished || ctx.failed || !ctx.mf_active) continue;
    std::vector<Rank> implicated;
    bool wildcard = false;
    for (const std::uint32_t slot : ctx.mf_slots) {
      if (slot == kNoSlot) continue;
      const auto& req = ctx.recv_slots[slot];
      if (req.matched()) continue;
      if (req.source_spec == kAnySource) {
        wildcard = true;
        continue;
      }
      if (ranks_[static_cast<std::size_t>(req.source_spec)].failed)
        implicated.push_back(req.source_spec);
    }
    if (wildcard) {
      // ULFM: an ANY_SOURCE wait is implicated whenever any rank failed
      // (MPI_ERR_PROC_FAILED_PENDING).
      for (int s = 0; s < size(); ++s)
        if (ranks_[static_cast<std::size_t>(s)].failed)
          implicated.push_back(s);
    }
    if (implicated.empty()) continue;
    fail_mf(r, std::move(implicated));
    any_failed = true;
  }
  return any_failed;
}

void Simulator::describe_stuck_ranks() const {
  for (int r = 0; r < size(); ++r) {
    const auto& ctx = ranks_[static_cast<std::size_t>(r)];
    if (ctx.finished || ctx.failed) continue;
    if (ctx.mf_active) {
      std::fprintf(stderr,
                   "minimpi: deadlock — rank %d blocked in %s at callsite "
                   "%u (%zu reqs, %zu unexpected)\n",
                   r, mf_kind_name(ctx.mf->kind), ctx.mf->callsite,
                   ctx.mf_slots.size(), ctx.unexpected.size());
      for (const std::uint32_t slot : ctx.mf_slots) {
        if (slot == kNoSlot) continue;
        const auto& req = ctx.recv_slots[slot];
        const char* state = "live";
        if (req.source_spec != kAnySource) {
          const auto& src =
              ranks_[static_cast<std::size_t>(req.source_spec)];
          state = src.failed ? "FAILED" : (src.finished ? "finished"
                                                        : "live");
        }
        std::fprintf(stderr,
                     "minimpi:   awaiting source %d tag %d (%s%s)\n",
                     req.source_spec, req.tag_spec,
                     req.source_spec == kAnySource ? "any-source, " : "",
                     req.source_spec == kAnySource
                         ? (failed_count_ > 0 ? "some senders FAILED"
                                              : "senders live")
                         : state);
      }
    } else {
      std::fprintf(stderr, "minimpi: deadlock — rank %d blocked (%s)\n", r,
                   ctx.in_barrier ? "barrier" : "allreduce/unknown");
    }
  }
}

void Simulator::emit_obs_stats() {
  // Mirror the per-run tallies into the obs registry so the pipeline
  // report sees them without holding a Stats copy.
  if (!obs::enabled()) return;
  obs::counter("sim.messages_sent").add(stats_.messages_sent);
  obs::counter("sim.mf_calls").add(stats_.mf_calls);
  obs::counter("sim.receive_events").add(stats_.receive_events_delivered);
  obs::counter("sim.unmatched_tests").add(stats_.unmatched_tests);
  obs::counter("sim.faults")
      .add(fault_stats_.stalls + fault_stats_.delay_spikes +
           fault_stats_.burst_messages + fault_stats_.duplicates_injected +
           fault_stats_.rank_kills);
  obs::counter("sim.ranks_failed").add(stats_.ranks_failed);
  obs::counter("sim.mf_failures").add(stats_.mf_failures);
  // Per-run values: one sample per run, so the snapshot's exact max is the
  // largest run's and the count is the number of runs.
  obs::histogram("sim.max_queue_depth").record(stats_.max_queue_depth);
  obs::histogram("sim.max_live_requests").record(stats_.max_live_requests);
  obs::counter("sim.unexpected_scanned").add(stats_.unexpected_scanned);
  obs::counter("sim.irecv_scanned").add(stats_.irecv_scanned);
  obs::histogram("sim.max_unexpected").record(stats_.max_unexpected);
  obs::histogram("sim.max_live_messages").record(stats_.max_live_messages);
  obs::histogram("sim.virtual_time_us")
      .record(static_cast<std::uint64_t>(stats_.end_time * 1e6));
  obs::publish_virtual_now(stats_.end_time);
}

}  // namespace cdc::minimpi
