#include "tool/replayer.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "tool/order_digest.h"

namespace cdc::tool {

Replayer::Replayer(int num_ranks, const runtime::RecordStore* store,
                   const ToolOptions& options)
    : options_(options),
      store_(store),
      clocks_(static_cast<std::size_t>(num_ranks)),
      streams_(num_ranks),
      digests_(static_cast<std::size_t>(num_ranks), kOrderDigestBasis) {
  CDC_CHECK(store != nullptr && num_ranks >= 1);
  CDC_CHECK_MSG(options.codec == RecordCodec::kCdcFull,
                "replay is implemented for the CDC codec");
  // Structural identification needs per-callsite streams: within one
  // callsite, per-sender sightings are clock-ordered arrival prefixes;
  // merged streams interleave request classes and break that property.
  CDC_CHECK_MSG(options.identify_callsites,
                "replay requires MF identification (identify_callsites)");
}

std::uint64_t Replayer::order_digest() const {
  std::uint64_t combined = 0;
  for (const std::uint64_t d : digests_) combined ^= d;
  return combined;
}

StreamReplayer& Replayer::stream(minimpi::Rank rank,
                                 minimpi::CallsiteId callsite) {
  return streams_.get(rank, callsite, [&] {
    const runtime::StreamKey key{rank, callsite};
    // Windowed replay reads only epochs [0, hi): an epoch-indexed store
    // seeks and never touches the bytes past the window.
    auto bytes = windowed_ ? store_->read_prefix(key, window_hi_)
                           : store_->read(key);
    return StreamReplayer(key, std::move(bytes), window_hi_);
  });
}

void Replayer::replay_window(std::uint64_t epoch_lo,
                             std::uint64_t epoch_hi) {
  CDC_CHECK_MSG(streams_.empty(),
                "replay_window must be configured before the run starts");
  CDC_CHECK_MSG(epoch_lo < epoch_hi, "empty replay window");
  windowed_ = true;
  window_lo_ = epoch_lo;
  window_hi_ = epoch_hi;
  // A truncated record is a partial record: the first stream to hit its
  // window boundary must release the rest (see select()), so windowed
  // replay implies the partial-record machinery.
  options_.partial_record = true;
}

std::map<runtime::StreamKey, Replayer::WindowSlice> Replayer::window_slices()
    const {
  CDC_CHECK_MSG(windowed_, "window_slices without replay_window");
  std::map<runtime::StreamKey, WindowSlice> slices;
  streams_.for_each([&](const runtime::StreamKey& key,
                        const StreamReplayer& rep) {
    WindowSlice slice;
    slice.end = rep.confirmed_events();
    slice.begin = std::min(rep.events_loaded_before(window_lo_), slice.end);
    slices.emplace_hint(slices.end(), key, slice);
  });
  return slices;
}

std::uint64_t Replayer::on_send(minimpi::Rank sender) {
  return clocks_[static_cast<std::size_t>(sender)].on_send();
}

minimpi::SelectResult Replayer::select(
    minimpi::Rank rank, minimpi::CallsiteId callsite, minimpi::MFKind kind,
    std::span<const minimpi::Candidate> candidates,
    std::size_t total_requests, bool blocking) {
  if (released_)
    return ToolHooks::select(rank, callsite, kind, candidates,
                             total_requests, blocking);
  StreamReplayer& rep = stream(rank, callsite);

  // Sight newly visible candidates (Definition 8's observed set B).
  for (const minimpi::Candidate& c : candidates)
    if (c.fresh) rep.sight(clock::MessageId{c.source, c.piggyback});

  const StreamReplayer::Decision& decision = rep.decide(kind, candidates);
  minimpi::SelectResult result;
  switch (decision.kind) {
    case StreamReplayer::Decision::Kind::kPassthrough:
      // A partial record is a prefix, not a causally consistent cut: the
      // first stream to run dry releases EVERY stream to passthrough.
      // Gating the others past the release would compare free-running
      // Lamport clocks against recorded ones and mis-identify messages.
      // The release applies at the window barrier (on_window). Until then
      // the other streams keep gating, which is sound: a message sent
      // after this point arrives no earlier than base latency later, at or
      // past the current window's horizon, so no rank sees a post-release
      // clock before the release applies. The barrier also makes the
      // verified prefix independent of which worker ran which rank.
      if (options_.partial_record &&
          !release_requested_.exchange(true, std::memory_order_relaxed))
        obs::trace_instant("replay.release_passthrough", rank);
      return ToolHooks::select(rank, callsite, kind, candidates,
                               total_requests, blocking);
    case StreamReplayer::Decision::Kind::kNoMatch:
      result.action = minimpi::SelectResult::Action::kNoMatch;
      return result;
    case StreamReplayer::Decision::Kind::kBlock: {
      // Even Test-family calls wait for the recorded message (§3.6).
      static obs::Counter& obs_gated = obs::counter("replay.gated_blocks");
      obs_gated.add(1);
      result.action = minimpi::SelectResult::Action::kBlock;
      return result;
    }
    case StreamReplayer::Decision::Kind::kDeliver: {
      static obs::Counter& obs_delivers =
          obs::counter("replay.ordered_deliveries");
      obs_delivers.add(decision.messages.size());
      result.action = minimpi::SelectResult::Action::kDeliver;
      for (const clock::MessageId& id : decision.messages) {
        std::size_t index = candidates.size();
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          if (candidates[i].source == id.sender &&
              candidates[i].piggyback == id.clock) {
            index = i;
            break;
          }
        }
        CDC_CHECK_MSG(index < candidates.size(),
                      "selected message vanished from the candidate list");
        result.indices.push_back(index);
      }
      return result;
    }
  }
  return result;
}

void Replayer::on_unmatched_test(minimpi::Rank rank,
                                 minimpi::CallsiteId callsite) {
  // Unmatched tests are replayed events, so ticking here keeps the clock
  // replayable and identical to record mode.
  clocks_[static_cast<std::size_t>(rank)].tick();
  if (released_) return;
  StreamReplayer& rep = stream(rank, callsite);
  // In passthrough mode (record exhausted) there is nothing to confirm.
  if (!rep.exhausted()) rep.confirm_unmatched();
}

void Replayer::on_deliver(minimpi::Rank rank, minimpi::CallsiteId callsite,
                          minimpi::MFKind /*kind*/,
                          std::span<const minimpi::Completion> events) {
  auto& clock = clocks_[static_cast<std::size_t>(rank)];
  auto& digest = digests_[static_cast<std::size_t>(rank)];
  for (const minimpi::Completion& e : events) {
    clock.on_receive(e.piggyback);
    digest = fold_delivery(digest, callsite, e.source, e.piggyback);
  }
  if (released_) return;
  StreamReplayer& rep = stream(rank, callsite);
  if (!rep.exhausted()) rep.confirm_delivered(events);
}

void Replayer::on_deadlock() {
  std::fprintf(stderr, "cdc replayer state at deadlock:\n");
  streams_.for_each([](const runtime::StreamKey&, const StreamReplayer& rep) {
    if (!rep.exhausted()) rep.dump_state();
  });
}

bool Replayer::on_stall() {
  if (!options_.partial_record || released_) return false;
  // The recorded next message of some stream will never arrive (killed
  // sender / truncated record). Every gated prefix delivered so far is
  // verified; release the rest to passthrough so survivors finish.
  released_ = true;
  obs::counter("replay.stall_releases").add(1);
  obs::trace_instant("replay.stall_release", -1);
  return true;
}

void Replayer::on_window(double /*horizon*/) {
  if (release_requested_.load(std::memory_order_relaxed)) released_ = true;
}

Replayer::Totals Replayer::totals() const {
  Totals totals;
  streams_.for_each([&](const runtime::StreamKey&, const StreamReplayer& rep) {
    totals.replayed_events += rep.stats().replayed_events;
    totals.replayed_unmatched += rep.stats().replayed_unmatched;
    totals.chunks += rep.stats().chunks;
  });
  return totals;
}

std::map<runtime::StreamKey, StreamReplayer::Stats> Replayer::stream_totals()
    const {
  std::map<runtime::StreamKey, StreamReplayer::Stats> totals;
  streams_.for_each([&](const runtime::StreamKey& key,
                        const StreamReplayer& rep) {
    totals.emplace_hint(totals.end(), key, rep.stats());
  });
  return totals;
}

bool Replayer::fully_replayed() const {
  bool all = true;
  streams_.for_each([&](const runtime::StreamKey&, const StreamReplayer& rep) {
    all = all && rep.exhausted();
  });
  return all;
}

}  // namespace cdc::tool
