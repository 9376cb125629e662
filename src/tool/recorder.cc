#include "tool/recorder.h"

#include <cstdio>
#include <map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "tool/order_digest.h"

namespace cdc::tool {

Recorder::Recorder(int num_ranks, runtime::RecordSink* store,
                   const ToolOptions& options, FrameSink* sink)
    : options_(options),
      store_(store),
      inline_sink_(store),
      sink_(sink != nullptr ? sink : &inline_sink_),
      clocks_(static_cast<std::size_t>(num_ranks)),
      streams_(num_ranks),
      due_ranks_(static_cast<std::size_t>(num_ranks), 0),
      digests_(static_cast<std::size_t>(num_ranks), kOrderDigestBasis) {
  CDC_CHECK(store != nullptr && num_ranks >= 1);
}

std::uint64_t Recorder::order_digest() const {
  std::uint64_t combined = 0;
  for (const std::uint64_t d : digests_) combined ^= d;
  return combined;
}

StreamRecorder& Recorder::stream(minimpi::Rank rank,
                                 minimpi::CallsiteId callsite) {
  if (!options_.identify_callsites) callsite = 0;
  return streams_.get(rank, callsite, [&] {
    return StreamRecorder(runtime::StreamKey{rank, callsite}, options_);
  });
}

std::uint64_t Recorder::on_send(minimpi::Rank sender) {
  return clocks_[static_cast<std::size_t>(sender)].on_send();
}

minimpi::SelectResult Recorder::select(
    minimpi::Rank rank, minimpi::CallsiteId callsite, minimpi::MFKind kind,
    std::span<const minimpi::Candidate> candidates,
    std::size_t total_requests, bool blocking) {
  // Record mode: sight candidates for epoch enforcement, then pass the
  // matching decision through unchanged.
  StreamRecorder& rec = stream(rank, callsite);
  for (const minimpi::Candidate& c : candidates)
    if (c.fresh) rec.on_candidate(clock::MessageId{c.source, c.piggyback});
  return ToolHooks::select(rank, callsite, kind, candidates, total_requests,
                           blocking);
}

void Recorder::on_unmatched_test(minimpi::Rank rank,
                                 minimpi::CallsiteId callsite) {
  // Unmatched tests are themselves replayed, so ticking on them keeps the
  // clock replayable (the paper's §4.3 invites such refined clock
  // definitions). It keeps rank clocks advancing at poll rate, which
  // greatly increases observed/reference order similarity for polling
  // applications like MCB.
  clocks_[static_cast<std::size_t>(rank)].tick();
  stream(rank, callsite).on_unmatched_test();
}

void Recorder::on_deliver(minimpi::Rank rank, minimpi::CallsiteId callsite,
                          minimpi::MFKind /*kind*/,
                          std::span<const minimpi::Completion> events) {
  StreamRecorder& rec = stream(rank, callsite);
  auto& clock = clocks_[static_cast<std::size_t>(rank)];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const minimpi::Completion& e = events[i];
    clock.on_receive(e.piggyback);
    record::ReceiveEvent event;
    event.flag = true;
    event.with_next = i + 1 < events.size();
    event.rank = e.source;
    event.clock = e.piggyback;
    rec.on_delivered(event);
    auto& digest = digests_[static_cast<std::size_t>(rank)];
    digest = fold_delivery(digest, callsite, e.source, e.piggyback);
    if (rank == options_.clock_trace_rank)
      clock_trace_.push_back(e.piggyback);
  }
  if (rec.due()) due_ranks_[static_cast<std::size_t>(rank)] = 1;
}

void Recorder::on_window(double /*horizon*/) {
  // Every worker is quiesced at the window barrier: flush due chunks for
  // all streams in canonical key order. Window boundaries are worker-
  // count-invariant, so the chunk sequence — and the sealed container —
  // is too. A stream stays due while no clean cut exists, so its rank
  // stays marked and is retried at the next barrier.
  bool flushed = false;
  for (std::size_t r = 0; r < due_ranks_.size(); ++r) {
    if (due_ranks_[r] == 0) continue;
    bool still_due = false;
    streams_.for_each_in_row(
        static_cast<minimpi::Rank>(r),
        [&](const runtime::StreamKey&, StreamRecorder& rec) {
          const std::uint64_t chunks_before = rec.stats().chunks;
          rec.flush_if_due(*sink_);
          flushed = flushed || rec.stats().chunks != chunks_before;
          still_due = still_due || rec.due();
        });
    due_ranks_[r] = still_due ? 1 : 0;
  }
  if (flushed) checkpoint();
}

void Recorder::checkpoint() {
  obs::TraceSpan span("record.checkpoint", -1);
  try {
    store_->sync();
    obs::counter("record.checkpoints").add(1);
  } catch (const runtime::IoError& e) {
    // A failed durability barrier weakens the ≤ one-window loss guarantee
    // but must not kill the run — the appends themselves succeeded.
    // (RetryingStore never throws here; this guards bare fault stores.)
    ++checkpoint_failures_;
    obs::counter("record.checkpoint_failures").add(1);
    std::fprintf(stderr, "cdc record: checkpoint sync failed (%s)\n",
                 e.what());
  }
}

void Recorder::finalize() {
  obs::TraceSpan span("record.finalize", -1, "streams", streams_.size());
  streams_.for_each([&](const runtime::StreamKey&, StreamRecorder& rec) {
    rec.finalize(*sink_);
  });
}

Recorder::Totals Recorder::totals() const {
  Totals totals;
  streams_.for_each([&](const runtime::StreamKey&, const StreamRecorder& rec) {
    const auto& s = rec.stats();
    totals.matched_events += s.matched_events;
    totals.unmatched_events += s.unmatched_events;
    totals.moves += s.moves;
    totals.chunks += s.chunks;
    totals.stored_values += s.stored_values;
    totals.rows += s.rows;
  });
  return totals;
}

std::vector<double> Recorder::permutation_percentages() const {
  std::map<minimpi::Rank, std::pair<std::uint64_t, std::uint64_t>> by_rank;
  streams_.for_each([&](const runtime::StreamKey& key,
                        const StreamRecorder& rec) {
    auto& [moves, matched] = by_rank[key.rank];
    moves += rec.stats().moves;
    matched += rec.stats().matched_events;
  });
  std::vector<double> out;
  out.reserve(by_rank.size());
  for (const auto& [rank, counts] : by_rank) {
    const auto& [moves, matched] = counts;
    out.push_back(matched > 0 ? static_cast<double>(moves) /
                                    static_cast<double>(matched)
                              : 0.0);
  }
  return out;
}

}  // namespace cdc::tool
