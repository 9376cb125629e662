// The replay-mode tool session (Figure 2, right; Figure 11 replay path).
//
// Gates MiniMPI's matching functions so that every MF call at every rank
// surfaces exactly the receive events of the recorded run, in the recorded
// order — regardless of the replay run's own message timing. Lamport
// clocks are maintained identically to record mode, which (Theorem 2)
// makes piggybacked clocks — and hence the reconstructed reference
// orders — identical between the two runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "clock/lamport.h"
#include "minimpi/hooks.h"
#include "runtime/storage.h"
#include "tool/options.h"
#include "tool/stream_replayer.h"
#include "tool/stream_table.h"

namespace cdc::tool {

class Replayer : public minimpi::ToolHooks {
 public:
  Replayer(int num_ranks, const runtime::RecordStore* store,
           const ToolOptions& options = {});

  std::uint64_t on_send(minimpi::Rank sender) override;
  minimpi::SelectResult select(minimpi::Rank rank,
                               minimpi::CallsiteId callsite,
                               minimpi::MFKind kind,
                               std::span<const minimpi::Candidate> candidates,
                               std::size_t total_requests,
                               bool blocking) override;
  void on_unmatched_test(minimpi::Rank rank,
                         minimpi::CallsiteId callsite) override;
  void on_deliver(minimpi::Rank rank, minimpi::CallsiteId callsite,
                  minimpi::MFKind kind,
                  std::span<const minimpi::Completion> events) override;
  void on_deadlock() override;
  /// Degraded-mode gap bridging: when the simulator stalls (a recorded
  /// next message that will never arrive — its sender was killed, or the
  /// record is truncated mid-epoch), a partial-record replayer releases
  /// all gating so the surviving ranks run to completion in passthrough.
  /// Returns true exactly once; full replay keeps the deadlock abort.
  bool on_stall() override;
  /// Window barrier: applies a release that select() requested during the
  /// window (see select()).
  void on_window(double horizon) override;

  /// Configures windowed replay of epochs [epoch_lo, epoch_hi). Must be
  /// called before the run starts (before any hook fires). Every stream's
  /// record is truncated at its epoch_hi-th chunk; when the first stream
  /// exhausts its window, the partial-record release machinery frees the
  /// whole run to passthrough (gating past a truncation point is unsound —
  /// see select()). The run still executes the application from the start;
  /// what the window buys is that no stream decodes frames past epoch_hi —
  /// with an epoch-indexed container the bytes past the window need not
  /// even be read — and window_slices() afterwards names the verified
  /// [lo, hi) portion of each stream's trace.
  void replay_window(std::uint64_t epoch_lo, std::uint64_t epoch_hi);

  /// The half-open event-index range of one stream's trace that windowed
  /// replay verified against the record (events [begin, end) of the trace
  /// are the recorded order). begin corresponds to epoch_lo; end is capped
  /// by the global release — the stream that triggered it covers its full
  /// window, later streams a prefix of theirs.
  struct WindowSlice {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };
  [[nodiscard]] std::map<runtime::StreamKey, WindowSlice> window_slices()
      const;

  struct Totals {
    std::uint64_t replayed_events = 0;
    std::uint64_t replayed_unmatched = 0;
    std::uint64_t chunks = 0;
  };
  [[nodiscard]] Totals totals() const;

  /// True when every stream has consumed its record completely.
  [[nodiscard]] bool fully_replayed() const;

  /// True once a partial-record replay has released every stream to
  /// passthrough (see ToolOptions::partial_record). Always false otherwise.
  /// The release takes effect at a window barrier, so the verified prefix
  /// is the same at every worker count.
  [[nodiscard]] bool released() const noexcept { return released_; }

  /// Per-stream replay progress — in partial-record mode, the verified
  /// prefix length of each stream (events gated by the record before the
  /// global release), the input to support/oracle.h check_prefix.
  [[nodiscard]] std::map<runtime::StreamKey, StreamReplayer::Stats>
  stream_totals() const;

  /// Same digest as Recorder::order_digest(): equal digests mean the
  /// replay surfaced identical per-rank receive-event streams.
  [[nodiscard]] std::uint64_t order_digest() const;

 private:
  StreamReplayer& stream(minimpi::Rank rank, minimpi::CallsiteId callsite);

  ToolOptions options_;
  const runtime::RecordStore* store_;
  std::vector<clock::LamportClock> clocks_;
  StreamTable<StreamReplayer> streams_;
  std::vector<std::uint64_t> digests_;
  /// Partial-record global release: requested by whichever stream runs dry
  /// first (from any worker), applied at the next window barrier. Only the
  /// coordinator writes released_, while every worker is quiesced.
  std::atomic<bool> release_requested_{false};
  bool released_ = false;
  std::uint64_t window_lo_ = 0;
  std::uint64_t window_hi_ = StreamReplayer::kNoChunkLimit;
  bool windowed_ = false;
};

}  // namespace cdc::tool
