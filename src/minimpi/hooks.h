// Tool interposition interface — MiniMPI's analogue of PMPI/PnMPI.
//
// The paper's tool interposes on MPI in three places: it piggybacks a
// Lamport clock on every send, it observes every application-level
// message-receive event (record mode), and it controls which message a
// matching function returns (replay mode). ToolHooks exposes exactly those
// three points. The default implementation reproduces untooled MPI
// semantics (first-matched, first-delivered).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "minimpi/fault.h"
#include "minimpi/types.h"

namespace cdc::minimpi {

/// Candidate indices chosen by a selection hook. The first kInline live
/// inside the object — an MCB testsome covers 16 receives — so a
/// steady-state poll allocates nothing; a longer list moves to one heap
/// block.
class IndexList {
 public:
  static constexpr std::size_t kInline = 16;

  void push_back(std::size_t index) {
    if (spill_.empty() && size_ < kInline) {
      inline_[size_++] = index;
      return;
    }
    if (spill_.empty()) spill_.assign(inline_.begin(), inline_.end());
    spill_.push_back(index);
    ++size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const std::size_t* data() const noexcept {
    return spill_.empty() ? inline_.data() : spill_.data();
  }
  [[nodiscard]] const std::size_t* begin() const noexcept { return data(); }
  [[nodiscard]] const std::size_t* end() const noexcept {
    return data() + size_;
  }

 private:
  std::array<std::size_t, kInline> inline_{};
  std::size_t size_ = 0;
  std::vector<std::size_t> spill_;  ///< every index, once past kInline
};

/// Outcome of a selection hook for one MF poll.
struct SelectResult {
  enum class Action : std::uint8_t {
    kDeliver,  ///< deliver `indices` (into the candidate span), in order
    kNoMatch,  ///< Test family: report flag = false now
    kBlock,    ///< keep the call pending until more messages arrive —
               ///< in replay mode even Test-family calls block until the
               ///< recorded message is available (§3.6 wait condition)
  };
  Action action = Action::kNoMatch;
  IndexList indices;
};

class ToolHooks {
 public:
  virtual ~ToolHooks() = default;

  /// Called for every outgoing message; the returned value is piggybacked
  /// on the message (the tool attaches its Lamport clock here).
  virtual std::uint64_t on_send(Rank /*sender*/) { return 0; }

  /// Called each time an MF call polls its request set. `candidates` are
  /// the matched-but-undelivered receives in match order; `total_requests`
  /// is the number of (receive) requests the MF call covers. Record mode
  /// passes matching through unchanged; replay mode releases only the
  /// recorded next message(s), in the recorded order.
  virtual SelectResult select(Rank /*rank*/, CallsiteId /*callsite*/,
                              MFKind kind,
                              std::span<const Candidate> candidates,
                              std::size_t total_requests, bool blocking) {
    // Untooled MPI semantics: deliver exactly the MPI-matched (bound)
    // candidates, in match order; unbound candidates are invisible.
    SelectResult result;
    for (std::size_t i = 0; i < candidates.size(); ++i)
      if (candidates[i].bound) result.indices.push_back(i);
    const bool all_variant =
        kind == MFKind::kWaitall || kind == MFKind::kTestall;
    if (result.indices.empty() ||
        (all_variant && result.indices.size() < total_requests)) {
      result.action = blocking ? SelectResult::Action::kBlock
                               : SelectResult::Action::kNoMatch;
      return result;
    }
    result.action = SelectResult::Action::kDeliver;
    return result;
  }

  /// A Test-family call reported flag = false — the "unmatched test"
  /// events of Figure 4. The recorder aggregates consecutive occurrences
  /// into the `count` column.
  virtual void on_unmatched_test(Rank /*rank*/, CallsiteId /*callsite*/) {}

  /// Messages were delivered to the application by one MF call, in order.
  /// Record mode turns each into a receive-event row (`with_next` = not
  /// the last of the span); both modes update the rank's Lamport clock.
  virtual void on_deliver(Rank /*rank*/, CallsiteId /*callsite*/,
                          MFKind /*kind*/,
                          std::span<const Completion> /*events*/) {}

  /// The simulation deadlocked and is about to abort; the tool may dump
  /// diagnostic state (the replayer prints per-stream progress).
  virtual void on_deadlock() {}

  /// The event queue drained with matching-function calls still pending and
  /// re-polling made no progress — the simulator is stalled. The tool may
  /// change its own state so a blocked call can complete (the replayer
  /// releases partial-record gating here, bridging gaps left by killed
  /// ranks or truncated records) and return true to request another poll
  /// round. Contract: return true only after actually changing state; a
  /// tool that always returns true livelocks the drain loop. Returning
  /// false (the default) lets the simulator proceed to failure shrinking
  /// and, ultimately, the deadlock diagnostic.
  virtual bool on_stall() { return false; }

  /// A transport fault from the simulator's FaultPlan fired. `rank` is the
  /// destination rank for message faults and the stalled rank for stalls.
  /// Purely observational — fault injection never consults the tool.
  virtual void on_fault(FaultKind /*kind*/, Rank /*rank*/) {}

  /// Simulator::run() is about to start its window loop with this many
  /// worker threads (1 when the run stays on the caller's thread). From
  /// here until run() returns, hook callbacks for different ranks may
  /// arrive concurrently from those workers, while callbacks for one rank
  /// are serialized: a tool that keeps cross-rank state must lock it or
  /// defer it to on_window(), the only callback guaranteed to run with
  /// every worker stopped. Called once per run.
  virtual void on_parallel_start(int /*workers*/) {}

  /// A conservative time-window completed and the horizon advanced to
  /// `horizon` (also fired once at the terminal drain, with the final
  /// virtual time). Called from the coordinator while every worker is
  /// quiesced at the window barrier, so it is safe to touch any tool state
  /// and to perform deferred I/O in a deterministic order. Window
  /// boundaries do not depend on the worker count, so neither does
  /// anything a tool does here: the recorder flushes chunks and the
  /// replayer applies its partial-record release.
  virtual void on_window(double /*horizon*/) {}
};

}  // namespace cdc::minimpi
