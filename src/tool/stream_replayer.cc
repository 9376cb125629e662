#include "tool/stream_replayer.h"

#include <algorithm>
#include <cstdio>

#include "support/check.h"
#include "tool/frame.h"
#include "tool/options.h"

namespace cdc::tool {

StreamReplayer::StreamReplayer(runtime::StreamKey key,
                               std::vector<std::uint8_t> bytes,
                               std::uint64_t max_chunks)
    : key_(key), bytes_(std::move(bytes)), max_chunks_(max_chunks) {
  frames_done_ = bytes_.empty();
  load_next_chunk_if_needed();
}

void StreamReplayer::load_next_chunk_if_needed() {
  while (chunk_done_ && !frames_done_) {
    if (stats_.chunks >= max_chunks_) {
      // Window boundary: the record continues, but the replay's view of it
      // ends here — identical to a record that stops at this epoch.
      frames_done_ = true;
      break;
    }
    if (cursor_ == bytes_.size()) {
      frames_done_ = true;
      break;
    }
    support::ByteReader reader(
        std::span<const std::uint8_t>{bytes_}.subspan(cursor_));
    auto frame = read_frame(reader);
    CDC_CHECK_MSG(frame.has_value(), "corrupt record frame during replay");
    cursor_ += reader.position();
    CDC_CHECK_MSG(frame->codec ==
                      static_cast<std::uint8_t>(RecordCodec::kCdcFull),
                  "replay requires CDC-encoded record data");
    support::ByteReader payload(frame->payload);
    auto parsed = record::read_chunk(payload);
    CDC_CHECK_MSG(parsed.has_value(), "corrupt CDC chunk during replay");
    chunk_ = std::move(*parsed);
    observed_ = record::observed_reference_indices(chunk_);
    with_next_.assign(observed_.size(), 0);
    for (const std::uint64_t pos : chunk_.with_next) with_next_[pos] = 1;
    next_run_ = 0;
    run_consumed_ = 0;
    next_pos_ = 0;
    chunk_done_ = observed_.empty() && chunk_.unmatched.empty();
    ++stats_.chunks;
    std::uint64_t chunk_events = chunk_.num_matched;
    for (const record::UnmatchedRun& run : chunk_.unmatched)
      chunk_events += run.count;
    chunk_events_.push_back(chunk_events);

    // Reference index -> (sender slot, per-sender occurrence).
    CDC_CHECK_MSG(chunk_.ref_senders.size() == chunk_.num_matched,
                  "chunk sender column length mismatch");
    const std::size_t slots = chunk_.epoch.size();
    if (arrivals_.size() < slots) arrivals_.resize(slots);
    for (std::size_t slot = 0; slot < slots; ++slot) arrivals_[slot].clear();
    std::vector<std::uint32_t> occurrences(slots, 0);
    ref_occurrence_.clear();
    ref_occurrence_.reserve(chunk_.ref_senders.size());
    for (const std::int32_t sender : chunk_.ref_senders) {
      const std::int64_t slot = slot_of(sender);
      CDC_CHECK_MSG(slot >= 0, "chunk sender is not on its epoch line");
      const auto u = static_cast<std::uint32_t>(slot);
      ref_occurrence_.emplace_back(u, occurrences[u]++);
    }

    // Re-classify messages that ran off earlier epoch lines, in reference
    // order: classify needs each sender's clocks in ascending order.
    std::vector<clock::MessageId> pool = std::move(holdover_);
    holdover_.clear();
    std::sort(pool.begin(), pool.end(), clock::ReferenceOrderLess{});
    for (const clock::MessageId& id : pool) classify(id);
  }
  if (chunk_done_ && frames_done_) {
    CDC_CHECK_MSG(next_run_ == chunk_.unmatched.size() &&
                      next_pos_ >= observed_.size(),
                  "record stream ended mid-chunk");
  }
}

std::int64_t StreamReplayer::slot_of(std::int32_t sender) const {
  const auto it = std::lower_bound(
      chunk_.epoch.begin(), chunk_.epoch.end(), sender,
      [](const record::EpochEntry& e, std::int32_t s) { return e.sender < s; });
  if (it == chunk_.epoch.end() || it->sender != sender) return -1;
  return it - chunk_.epoch.begin();
}

void StreamReplayer::classify(const clock::MessageId& id) {
  const std::int64_t slot = chunk_done_ ? -1 : slot_of(id.sender);
  if (slot >= 0 &&
      id.clock <= chunk_.epoch[static_cast<std::size_t>(slot)].clock) {
    auto& clocks = arrivals_[static_cast<std::size_t>(slot)];
    // Per-sender sightings arrive in clock order (channel monotonicity).
    CDC_CHECK_MSG(clocks.empty() || clocks.back() < id.clock,
                  "out-of-order sighting within a sender channel");
    clocks.push_back(id.clock);
  } else {
    holdover_.push_back(id);
  }
}

void StreamReplayer::sight(const clock::MessageId& id) {
  const auto it = std::lower_bound(
      last_sighted_.begin(), last_sighted_.end(), id.sender,
      [](const auto& entry, std::int32_t s) { return entry.first < s; });
  if (it == last_sighted_.end() || it->first != id.sender) {
    last_sighted_.emplace(it, id.sender, id.clock);
  } else {
    if (id.clock <= it->second) return;  // already sighted
    it->second = id.clock;
  }
  classify(id);
}

bool StreamReplayer::identify(std::uint32_t ref_index,
                              clock::MessageId& out) const {
  const auto& [slot, occurrence] = ref_occurrence_[ref_index];
  const std::vector<std::uint64_t>& clocks = arrivals_[slot];
  if (clocks.size() <= occurrence) return false;
  out = clock::MessageId{chunk_.epoch[slot].sender, clocks[occurrence]};
  return true;
}

const StreamReplayer::Decision& StreamReplayer::decide(
    minimpi::MFKind kind, std::span<const minimpi::Candidate> candidates) {
  const auto available = [&](const clock::MessageId& id) {
    for (const minimpi::Candidate& c : candidates)
      if (c.source == id.sender && c.piggyback == id.clock) return true;
    return false;
  };
  load_next_chunk_if_needed();
  decision_.messages.clear();
  if (exhausted()) {
    decision_.kind = Decision::Kind::kPassthrough;
    return decision_;
  }

  // A recorded run of unmatched tests at this position?
  if (next_run_ < chunk_.unmatched.size() &&
      chunk_.unmatched[next_run_].index == next_pos_) {
    CDC_CHECK_MSG(!minimpi::is_blocking(kind),
                  "replay divergence: record expects an unmatched test but "
                  "the application issued a Wait-family call");
    decision_.kind = Decision::Kind::kNoMatch;
    return decision_;
  }

  CDC_CHECK_MSG(next_pos_ < observed_.size(),
                "replay position ran past the chunk");

  // The with_next group starting at the current position: [next_pos_, end).
  std::uint64_t end = next_pos_;
  while (end < with_next_.size() && with_next_[end] != 0) ++end;
  ++end;
  CDC_CHECK_MSG(end - next_pos_ == 1 || minimpi::is_multi_delivery(kind),
                "replay divergence: recorded message group cannot be "
                "delivered by a single-delivery MF call");

  for (std::uint64_t pos = next_pos_; pos < end; ++pos) {
    CDC_CHECK_MSG(pos < observed_.size(),
                  "with_next group exceeds chunk bounds");
    clock::MessageId id;
    if (!identify(observed_[pos], id) || !available(id)) {
      decision_.kind = Decision::Kind::kBlock;
      decision_.messages.clear();
      return decision_;
    }
    decision_.messages.push_back(id);
  }
  decision_.kind = Decision::Kind::kDeliver;
  return decision_;
}

void StreamReplayer::confirm_unmatched() {
  CDC_CHECK(next_run_ < chunk_.unmatched.size() &&
            chunk_.unmatched[next_run_].index == next_pos_);
  ++run_consumed_;
  ++stats_.replayed_unmatched;
  if (run_consumed_ == chunk_.unmatched[next_run_].count) {
    ++next_run_;
    run_consumed_ = 0;
  }
  if (next_pos_ >= observed_.size() && next_run_ == chunk_.unmatched.size()) {
    chunk_done_ = true;
    load_next_chunk_if_needed();
  }
}

void StreamReplayer::confirm_delivered(
    std::span<const minimpi::Completion> events) {
  for (const minimpi::Completion& e : events) {
    CDC_CHECK_MSG(next_pos_ < observed_.size(),
                  "delivery past the end of the recorded chunk");
    clock::MessageId expected;
    CDC_CHECK_MSG(identify(observed_[next_pos_], expected),
                  "delivered message was never identified");
    CDC_CHECK_MSG(expected.sender == e.source &&
                      expected.clock == e.piggyback,
                  "replay delivered a message that differs from the record");
    ++next_pos_;
    ++stats_.replayed_events;
  }
  if (next_pos_ >= observed_.size() && next_run_ == chunk_.unmatched.size()) {
    chunk_done_ = true;
    load_next_chunk_if_needed();
  }
}

void StreamReplayer::dump_state() const {
  std::fprintf(stderr,
               "  stream(rank=%d, cs=%u): chunk#%llu pos=%llu/%zu runs=%zu "
               "run_consumed=%llu holdover=%zu%s%s\n",
               key_.rank, key_.callsite,
               static_cast<unsigned long long>(stats_.chunks),
               static_cast<unsigned long long>(next_pos_), observed_.size(),
               chunk_.unmatched.size() - next_run_,
               static_cast<unsigned long long>(run_consumed_),
               holdover_.size(), chunk_done_ ? " chunk_done" : "",
               frames_done_ ? " frames_done" : "");
  if (next_pos_ < observed_.size()) {
    const std::uint32_t ref = observed_[next_pos_];
    const auto& [slot, occurrence] = ref_occurrence_[ref];
    std::fprintf(stderr,
                 "    next ref %u = occurrence %u of sender %d "
                 "(%zu sighted)\n",
                 ref, occurrence, chunk_.epoch[slot].sender,
                 arrivals_[slot].size());
  }
}

}  // namespace cdc::tool
