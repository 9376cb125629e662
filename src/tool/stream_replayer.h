// Per-(rank, callsite) replay stream (§3.6, §5).
//
// The record stores no message clocks — replay identifies each recorded
// receive structurally: reference index j of the current chunk means "the
// k-th chunk message from sender s" (k, s from the chunk's reference-order
// sender column). Because per-channel clocks are strictly increasing, the
// sighted messages from a sender always form a prefix of that sender's
// chunk messages, so the k-th sighted arrival IS the k-th chunk message —
// identification needs no clock-frontier reasoning. A release therefore
// waits only for the arrival of the specific messages it delivers
// (Axiom 1 (ii)), which Theorem 1's induction guarantees will happen; the
// epoch line classifies each sighted message into the current chunk
// (clock <= epoch[sender]) or a later one ("runs off the epoch line",
// §3.5).
//
// Per-event state is flat. A sender's slot is its index on the current
// chunk's epoch line (sorted by sender, found by binary search); sighted
// arrivals live in per-slot clock vectors reused across chunks, and
// decide() fills a reused Decision without allocating.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "clock/lamport.h"
#include "minimpi/types.h"
#include "record/chunk.h"
#include "runtime/storage.h"
#include "support/binary.h"

namespace cdc::tool {

class StreamReplayer {
 public:
  /// What the current MF call should do at this callsite.
  struct Decision {
    enum class Kind : std::uint8_t {
      kDeliver,      ///< release `messages` in that order
      kNoMatch,      ///< a recorded unmatched test: report flag = false
      kBlock,        ///< recorded next message not arrived yet — wait
      kPassthrough,  ///< record exhausted: default MPI behaviour
    };
    Kind kind = Kind::kPassthrough;
    std::vector<clock::MessageId> messages;
  };

  /// No chunk limit: replay the record to its end.
  static constexpr std::uint64_t kNoChunkLimit = ~std::uint64_t{0};

  /// `max_chunks` truncates the record at a chunk (= epoch) boundary: the
  /// replayer gates the first `max_chunks` chunks and then reports
  /// exhaustion, exactly as if the record ended there — the seam windowed
  /// replay uses to stop gating at epoch `hi` without decoding beyond it.
  StreamReplayer(runtime::StreamKey key, std::vector<std::uint8_t> bytes,
                 std::uint64_t max_chunks = kNoChunkLimit);

  /// Reports a matched-but-undelivered message observed at an MF poll.
  /// Idempotent across polls (per-sender sightings arrive in clock order).
  void sight(const clock::MessageId& id);

  /// Decides the current MF call's outcome given the candidates of this
  /// specific call (linear membership scans: recorded groups are small).
  /// The result is valid until the next call on this replayer.
  const Decision& decide(minimpi::MFKind kind,
                         std::span<const minimpi::Candidate> candidates);

  /// Confirms that a flag=false result was surfaced to the application.
  void confirm_unmatched();

  /// Confirms deliveries in order; verifies them against the record.
  void confirm_delivered(std::span<const minimpi::Completion> events);

  [[nodiscard]] bool exhausted() const noexcept {
    return chunk_done_ && frames_done_;
  }

  struct Stats {
    std::uint64_t replayed_events = 0;
    std::uint64_t replayed_unmatched = 0;
    std::uint64_t chunks = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Application-visible events (deliveries + unmatched tests) in the
  /// first min(`chunk`, chunks loaded so far) chunks — the event-index
  /// origin of a replay window. Counts decoded chunk headers, so it is
  /// exact for every chunk the replayer has reached.
  [[nodiscard]] std::uint64_t events_loaded_before(std::uint64_t chunk) const {
    std::uint64_t total = 0;
    for (std::uint64_t c = 0; c < chunk && c < chunk_events_.size(); ++c)
      total += chunk_events_[c];
    return total;
  }
  /// Events confirmed against the record so far (the verified prefix of
  /// the stream's trace, in trace order).
  [[nodiscard]] std::uint64_t confirmed_events() const noexcept {
    return stats_.replayed_events + stats_.replayed_unmatched;
  }

  /// Writes a short progress diagnostic to stderr (deadlock dumps).
  void dump_state() const;

 private:
  void load_next_chunk_if_needed();
  void classify(const clock::MessageId& id);
  /// The message at reference index j, if its arrival has been sighted.
  [[nodiscard]] bool identify(std::uint32_t ref_index,
                              clock::MessageId& out) const;
  /// The sender's slot on the current epoch line, or -1 when the sender
  /// has no message in the current chunk.
  [[nodiscard]] std::int64_t slot_of(std::int32_t sender) const;

  runtime::StreamKey key_;
  std::vector<std::uint8_t> bytes_;
  std::size_t cursor_ = 0;  ///< parse position within bytes_
  bool frames_done_ = false;
  std::uint64_t max_chunks_ = kNoChunkLimit;
  /// Trace events (matched + unmatched) per loaded chunk.
  std::vector<std::uint64_t> chunk_events_;

  // Current chunk.
  record::CdcChunk chunk_;
  std::vector<std::uint32_t> observed_;  ///< B: observed -> reference index
  /// Per reference index: (sender slot, per-sender occurrence).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ref_occurrence_;
  /// Per observed position: delivered together with the next position.
  std::vector<std::uint8_t> with_next_;
  std::size_t next_run_ = 0;  ///< cursor into chunk_.unmatched
  std::uint64_t run_consumed_ = 0;
  std::uint64_t next_pos_ = 0;
  bool chunk_done_ = true;

  // Arrival tracking.
  /// (sender, last sighted clock), sorted by sender; stream-global.
  std::vector<std::pair<std::int32_t, std::uint64_t>> last_sighted_;
  /// Sighted current-chunk clocks per epoch slot, ascending (always a
  /// prefix of the sender's chunk messages). Only the first
  /// chunk_.epoch.size() entries belong to the current chunk.
  std::vector<std::vector<std::uint64_t>> arrivals_;
  /// Sighted messages that ran off the current epoch line; put in
  /// reference order when the next chunk loads.
  std::vector<clock::MessageId> holdover_;

  Decision decision_;  ///< decide()'s result, reused across calls
  Stats stats_;
};

}  // namespace cdc::tool
