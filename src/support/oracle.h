// Replay-equivalence oracle (the checker behind the schedule fuzzer).
//
// The paper's correctness claim (Theorem 2) is that replay surfaces, per
// (rank, MF-callsite) stream, exactly the receive events of the recorded
// run, in the recorded order. The oracle makes that claim checkable from
// the outside: an OrderProbe interposes as a forwarding ToolHooks wrapper
// around a Recorder or Replayer and captures every application-visible
// receive event (and unmatched test) into per-stream traces; two traces are
// then compared event-by-event, bit-for-bit — source, tag, piggybacked
// clock, and a CRC of the payload. A prefix variant supports crash/salvage
// runs, where only a verified prefix of each stream is expected to match,
// and a slice variant windowed replays, where only a verified interval is.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "minimpi/hooks.h"
#include "runtime/storage.h"

namespace cdc::support {

/// One application-visible event of a stream: a delivered receive
/// (`matched`) or a flag = false Test-family return (`!matched`). Payloads
/// are summarised by size + CRC-32 so traces stay small at fuzzing volume.
struct ObservedEvent {
  bool matched = true;
  minimpi::Rank source = -1;
  int tag = -1;
  std::uint64_t piggyback = 0;
  std::uint32_t payload_crc = 0;
  std::uint64_t payload_size = 0;

  friend bool operator==(const ObservedEvent&,
                         const ObservedEvent&) = default;
};

using StreamTrace = std::vector<ObservedEvent>;
using Trace = std::map<runtime::StreamKey, StreamTrace>;

/// Forwarding ToolHooks wrapper that records what the application saw.
/// With `inner == nullptr` it reproduces untooled MPI semantics (the
/// ToolHooks defaults); wrapped around a Recorder/Replayer it is invisible
/// to the tool — hook results pass through unchanged — so probing never
/// perturbs the run it is checking.
class OrderProbe : public minimpi::ToolHooks {
 public:
  explicit OrderProbe(minimpi::ToolHooks* inner = nullptr) : inner_(inner) {}

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
  bool on_stall() override;
  void on_fault(minimpi::FaultKind kind, minimpi::Rank rank) override;
  void on_parallel_start(int workers) override;
  void on_window(double horizon) override;

  /// Do not read while a run is in flight (valid after run()).
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] std::uint64_t total_events() const noexcept;
  [[nodiscard]] std::uint64_t fault_count(minimpi::FaultKind kind) const {
    return fault_counts_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }

 private:
  minimpi::ToolHooks* inner_;
  /// Guards the trace map against concurrent workers. Test-machinery
  /// only — the probed product path never takes this lock — so the
  /// contention is an accepted cost of observing a multi-worker run.
  std::mutex trace_mu_;
  Trace trace_;
  std::array<std::atomic<std::uint64_t>, minimpi::kFaultKindCount>
      fault_counts_{};
};

/// Outcome of one oracle comparison. `mismatches` holds human-readable
/// diagnoses of the first few divergences — enough to reproduce and debug a
/// fuzzer failure without drowning in output.
struct OracleReport {
  bool ok = true;
  std::size_t streams_compared = 0;
  std::uint64_t events_compared = 0;
  std::vector<std::string> mismatches;

  [[nodiscard]] std::string summary() const;
};

/// Full equivalence: both traces contain the same streams and every stream
/// is event-for-event identical.
[[nodiscard]] OracleReport check_equivalence(const Trace& recorded,
                                             const Trace& replayed);

/// Prefix equivalence for crash/salvage replay: for each recorded stream,
/// the first `prefix_lengths[key]` events of the replayed trace must exist
/// and match the recorded trace bit-for-bit. Streams absent from
/// `prefix_lengths` are checked with prefix 0 (nothing was salvaged for
/// them). Events past the prefix are the replay run's own (passthrough)
/// non-determinism and are ignored.
[[nodiscard]] OracleReport check_prefix(
    const Trace& recorded, const Trace& replayed,
    const std::map<runtime::StreamKey, std::uint64_t>& prefix_lengths);

/// Events [begin, end) of one stream.
struct EventSpan {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  friend bool operator==(const EventSpan&, const EventSpan&) = default;
};

/// Slice equivalence for windowed replay: for each stream of `slices`,
/// events [begin, end) of `replayed` must exist and match the same events
/// of `reference` bit-for-bit. An empty slice requires nothing; a slice
/// past either trace's end fails, and so does a check that compares no
/// event at all.
[[nodiscard]] OracleReport check_slices(
    const Trace& reference, const Trace& replayed,
    const std::map<runtime::StreamKey, EventSpan>& slices);

}  // namespace cdc::support
