// The record-mode tool session (Figure 2, left; Figure 11 record path).
//
// Implements MiniMPI's interposition hooks: piggybacks Lamport clocks on
// sends, observes every application-level receive event, and feeds the
// per-(rank, callsite) stream recorders. Matching behaviour is passed
// through unchanged — recording never alters the run.
#pragma once

#include <cstdint>
#include <vector>

#include "clock/lamport.h"
#include "minimpi/hooks.h"
#include "runtime/storage.h"
#include "tool/frame_sink.h"
#include "tool/options.h"
#include "tool/stream_recorder.h"
#include "tool/stream_table.h"

namespace cdc::tool {

class Recorder : public minimpi::ToolHooks {
 public:
  /// `sink` routes sealed chunks to their encoder: null means an
  /// InlineFrameSink into `store`; pass a FrameSink that wraps one to
  /// observe the flushes. The sink must outlive the recorder and commit
  /// into `store`.
  Recorder(int num_ranks, runtime::RecordSink* store,
           const ToolOptions& options = {}, FrameSink* sink = nullptr);

  // --- ToolHooks
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
  /// Window barrier: flush every stream's due chunks in key order, then
  /// checkpoint. This is the only place chunks flush during a run. The
  /// hooks above touch per-rank state only (clocks, digests, the rank's
  /// row of stream recorders), which the simulator's
  /// one-task-per-rank-per-window rule keeps owner-serialized, so even
  /// stream creation takes no lock (see tool/stream_table.h). Flushing
  /// here runs single-threaded at worker-count-invariant points, so the
  /// sealed container is byte-identical for every worker count.
  void on_window(double horizon) override;

  /// Flushes every stream; call once after Simulator::run() returns.
  void finalize();

  /// Checkpoint syncs that threw IoError (see ToolOptions::
  /// checkpoint_interval; 0 with a retrying or fault-free store).
  [[nodiscard]] std::uint64_t checkpoint_failures() const noexcept {
    return checkpoint_failures_;
  }

  // --- Introspection for the evaluation harnesses.
  struct Totals {
    std::uint64_t matched_events = 0;
    std::uint64_t unmatched_events = 0;
    std::uint64_t moves = 0;
    std::uint64_t chunks = 0;
    std::uint64_t stored_values = 0;
    std::uint64_t rows = 0;
  };
  [[nodiscard]] Totals totals() const;

  /// Np / N per rank (Figure 14).
  [[nodiscard]] std::vector<double> permutation_percentages() const;

  /// Received-clock series of the clock_trace_rank (Figure 1).
  [[nodiscard]] const std::vector<std::uint64_t>& clock_trace() const {
    return clock_trace_;
  }

  /// Order-sensitive digest of every rank's receive-event stream, combined
  /// across ranks order-insensitively (per-rank order is the replayed
  /// property; cross-rank interleaving is not).
  [[nodiscard]] std::uint64_t order_digest() const;

  [[nodiscard]] const ToolOptions& options() const noexcept {
    return options_;
  }

 private:
  StreamRecorder& stream(minimpi::Rank rank, minimpi::CallsiteId callsite);
  /// Issues a store durability barrier (a window flushed a chunk).
  void checkpoint();

  ToolOptions options_;
  runtime::RecordSink* store_;
  InlineFrameSink inline_sink_;
  FrameSink* sink_;  ///< &inline_sink_ unless the caller provided one
  std::vector<clock::LamportClock> clocks_;
  StreamTable<StreamRecorder> streams_;
  /// Per rank: 1 while one of the rank's streams is due (StreamRecorder::
  /// due). on_window visits only these ranks' rows; every other stream's
  /// flush_if_due would return at once. A rank's hooks write only its own
  /// byte.
  std::vector<std::uint8_t> due_ranks_;
  std::vector<std::uint64_t> clock_trace_;
  std::vector<std::uint64_t> digests_;
  std::uint64_t checkpoint_failures_ = 0;
};

}  // namespace cdc::tool
