// Per-(rank, callsite) record stream: event buffering, pending-message
// tracking for epoch enforcement, chunk flushing, and codec selection.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "clock/lamport.h"
#include "record/event.h"
#include "runtime/storage.h"
#include "tool/frame_sink.h"
#include "tool/options.h"

namespace cdc::tool {

class StreamRecorder {
 public:
  struct Stats {
    std::uint64_t matched_events = 0;
    std::uint64_t unmatched_events = 0;
    std::uint64_t moves = 0;      ///< permutated messages Np (Figure 14)
    std::uint64_t chunks = 0;
    std::uint64_t stored_values = 0;  ///< paper's value accounting
    std::uint64_t rows = 0;           ///< Figure 4 rows written (baselines)
  };

  StreamRecorder(runtime::StreamKey key, const ToolOptions& options)
      : key_(key), options_(options) {}

  /// A Test-family call at this callsite reported flag = false.
  void on_unmatched_test() {
    buffer_.push_back(record::ReceiveEvent{false, false, -1, 0});
    ++stats_.unmatched_events;
  }

  /// A message was delivered at this callsite.
  void on_delivered(const record::ReceiveEvent& event) {
    buffer_.push_back(event);
    ++buffered_matched_;
    ++stats_.matched_events;
    // The message is no longer pending (a never-sighted one never was).
    const auto it = find_sender(event.rank);
    if (it != by_sender_.end() && it->first == event.rank)
      pending_[it->second].erase(event.clock);
  }

  /// A matched-but-undelivered message was observed at an MF poll.
  /// Per-sender sightings arrive in clock order within one callsite
  /// stream, so anything at or below the last sighted clock is a
  /// re-sighting and is skipped; a new sighting is the sender's largest
  /// pending clock and appends.
  void on_candidate(const clock::MessageId& id) {
    const auto it = find_sender(id.sender);
    if (it == by_sender_.end() || it->first != id.sender) {
      by_sender_.emplace(it, id.sender,
                         static_cast<std::uint32_t>(pending_.size()));
      pending_.push_back(SenderPending{id.clock, {id.clock}});
      return;
    }
    SenderPending& p = pending_[it->second];
    if (id.clock > p.last_sighted) {
      p.last_sighted = id.clock;
      p.clocks.push_back(id.clock);
    }
  }

  /// True while a full chunk of matched events is buffered. Only
  /// on_delivered sets it; a flush that finds a clean cut clears it.
  [[nodiscard]] bool due() const noexcept {
    return buffered_matched_ >= options_.chunk_target;
  }

  /// Flushes a chunk if enough matched events are buffered and a clean
  /// epoch cut exists (§3.5).
  void flush_if_due(FrameSink& sink) {
    if (!due()) return;
    flush(sink, options_.chunk_target, /*force_all=*/false);
  }

  /// Convenience overload: encode inline into `store` (the seed path).
  void flush_if_due(runtime::RecordSink& store) {
    InlineFrameSink sink(&store);
    flush_if_due(sink);
  }

  /// Flushes everything remaining (end of run: pending messages will never
  /// be delivered and no longer constrain the cut).
  void finalize(FrameSink& sink) {
    for (SenderPending& p : pending_) p.clear();
    flush(sink, buffer_.size(), /*force_all=*/true);
  }

  void finalize(runtime::RecordSink& store) {
    InlineFrameSink sink(&store);
    finalize(sink);
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const runtime::StreamKey& key() const noexcept { return key_; }

 private:
  /// One sender's sighting state: the last sighted clock and the sighted
  /// but undelivered clocks, ascending, in clocks[head..].
  struct SenderPending {
    std::uint64_t last_sighted = 0;
    std::vector<std::uint64_t> clocks;
    std::size_t head = 0;

    void clear() noexcept {
      clocks.clear();
      head = 0;
    }
    /// Deliveries usually take the oldest pending clock; an out-of-order
    /// one is erased from the middle of the run.
    void erase(std::uint64_t clock) {
      if (head < clocks.size() && clocks[head] == clock) {
        ++head;
      } else {
        const auto it = std::lower_bound(
            clocks.begin() + static_cast<std::ptrdiff_t>(head), clocks.end(),
            clock);
        if (it == clocks.end() || *it != clock) return;
        clocks.erase(it);
      }
      if (head == clocks.size()) clear();
    }
  };

  /// (sender, index into pending_), sorted by sender.
  using SenderIndex = std::vector<std::pair<std::int32_t, std::uint32_t>>;

  /// The first by_sender_ entry whose sender is not below `sender`.
  [[nodiscard]] SenderIndex::iterator find_sender(std::int32_t sender) {
    return std::lower_bound(
        by_sender_.begin(), by_sender_.end(), sender,
        [](const auto& entry, std::int32_t s) { return entry.first < s; });
  }
  void flush(FrameSink& sink, std::size_t max_matched, bool force_all);

  runtime::StreamKey key_;
  ToolOptions options_;
  std::vector<record::ReceiveEvent> buffer_;
  std::size_t buffered_matched_ = 0;
  /// Per sender, in first-sighting order. A new sender appends here and
  /// inserts a small pair into by_sender_, so a wide stream (MCB's done
  /// callsite hears from every rank) never shifts the clock vectors.
  std::vector<SenderPending> pending_;
  SenderIndex by_sender_;
  Stats stats_;
};

}  // namespace cdc::tool
