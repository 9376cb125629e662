// Storage-fault survival: injected transient I/O errors, bounded-backoff
// retries, and frame quarantine.
//
// The paper's recorder writes per-process record data to node-local
// storage for the whole (hours-long) run — exactly the window in which
// disks return EIO, writes come up short, and fsync fails. The seed stack
// failed closed there: any store error aborted the recorder and the whole
// record was lost. This layer makes recording survive:
//
//   IoFaultStore   — seeded fault-injecting record sink (the
//                    storage analogue of minimpi's FaultPlan): EIO every
//                    Nth append / with probability p, short writes, fsync
//                    failures. Transient faults fail a configurable number
//                    of consecutive attempts of the *same* operation and
//                    then succeed; hard faults never succeed. Faults are
//                    thrown as runtime::IoError with nothing committed, so
//                    a retry of the identical call is always safe.
//   RetryingStore  — sink that catches runtime::IoError and retries
//                    with bounded exponential backoff + seeded jitter.
//                    An append that exhausts its retries is *quarantined*
//                    (kept in memory and, when a path is configured,
//                    appended to a `.cdcq` sidecar file) instead of
//                    aborting: the stream loses one frame, the run — and
//                    every other frame — survives, and degraded-mode
//                    replay (tool/degraded.h) reports the gap.
//
// Determinism: with the same plan, seed, and append sequence, the same
// operations fault, the same retries happen, and the surviving record is
// bit-identical to a fault-free one whenever no fault is hard — the
// property the retry-path tests pin down.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "runtime/storage.h"
#include "support/rng.h"

namespace cdc::store {

/// Seeded I/O-fault schedule for IoFaultStore. Counter-based knobs fire on
/// operation ordinals (deterministic regardless of seed); probability knobs
/// draw from the dedicated RNG. A default-constructed plan injects nothing
/// and draws nothing.
struct IoFaultPlan {
  std::uint64_t seed = 0;
  /// Every Nth distinct append throws a transient EIO (0 = off).
  std::uint32_t eio_every_n = 0;
  /// Additionally, each distinct append throws with this probability.
  double eio_probability = 0.0;
  /// Every Nth distinct append fails *permanently* — retries never succeed
  /// and the frame ends up quarantined (0 = off).
  std::uint32_t hard_every_n = 0;
  /// Consecutive attempts (including the first) a transient fault fails
  /// before the operation succeeds. 1 = first retry succeeds.
  std::uint32_t failures_per_fault = 1;
  /// A faulted append presents as a short write with this probability
  /// (diagnostic flavour only — either way nothing is committed).
  double short_write_probability = 0.0;
  /// Every Nth sync() throws once; the immediate retry succeeds (0 = off).
  std::uint32_t fsync_failure_every_n = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return eio_every_n > 0 || eio_probability > 0.0 || hard_every_n > 0 ||
           fsync_failure_every_n > 0;
  }
};

struct IoFaultStats {
  std::uint64_t appends = 0;          ///< distinct append operations seen
  std::uint64_t transient_throws = 0; ///< IoError throws that a retry can clear
  std::uint64_t hard_throws = 0;      ///< IoError throws that never clear
  std::uint64_t short_writes = 0;
  std::uint64_t fsync_failures = 0;
};

/// Fault-injecting record sink. Thread-safe. Recognises retries of a
/// faulted operation by fingerprint (key, length, CRC-32), so the "fail k
/// consecutive attempts then succeed" contract holds even though the store
/// is stateless from the caller's point of view.
class IoFaultStore final : public runtime::RecordSink {
 public:
  IoFaultStore(runtime::RecordSink* inner, const IoFaultPlan& plan);

  void append(const runtime::StreamKey& key,
              std::span<const std::uint8_t> bytes) override {
    append_impl(key, bytes, nullptr);
  }
  void append_epoch(const runtime::StreamKey& key,
                    std::span<const std::uint8_t> bytes,
                    const runtime::EpochMeta& meta) override {
    append_impl(key, bytes, &meta);
  }
  void sync() override;

  [[nodiscard]] const IoFaultStats& stats() const noexcept { return stats_; }

 private:
  void append_impl(const runtime::StreamKey& key,
                   std::span<const std::uint8_t> bytes,
                   const runtime::EpochMeta* meta);

  struct Fingerprint {
    runtime::StreamKey key;
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
    friend auto operator<=>(const Fingerprint&, const Fingerprint&) = default;
  };
  struct PendingFault {
    std::uint32_t remaining_throws = 0;  ///< after the initial one
    bool hard = false;
  };

  runtime::RecordSink* inner_;
  IoFaultPlan plan_;
  support::Xoshiro256 rng_;
  IoFaultStats stats_;
  std::map<Fingerprint, PendingFault> pending_;
  std::uint64_t syncs_ = 0;
  bool sync_faulted_ = false;
  mutable std::mutex mutex_;
};

/// Retry/backoff policy for RetryingStore. Backoff for retry i (0-based)
/// is min(max_backoff_ms, initial_backoff_ms * backoff_multiplier^i),
/// scaled by a seeded uniform jitter in [1 - jitter_fraction,
/// 1 + jitter_fraction]. Backoff is *accounted*
/// (RetryStats::backoff_ms_total), never slept, so virtual-time runs stay
/// instant.
struct RetryPolicy {
  static constexpr double initial_backoff_ms = 0.5;
  static constexpr double backoff_multiplier = 2.0;
  static constexpr double max_backoff_ms = 50.0;
  static constexpr double jitter_fraction = 0.25;
  std::uint32_t max_retries = 5;  ///< attempts = 1 + max_retries
  std::uint64_t jitter_seed = 1;

  /// Upper bound on total backoff charged to one operation — what the
  /// bounded-backoff test asserts against.
  [[nodiscard]] double max_total_backoff_ms() const noexcept {
    return static_cast<double>(max_retries) * max_backoff_ms *
           (1.0 + jitter_fraction);
  }
};

struct RetryStats {
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t recoveries = 0;   ///< appends that succeeded after >=1 retry
  std::uint64_t quarantined = 0;  ///< appends that exhausted every retry
  std::uint64_t sync_failures = 0;  ///< sync() calls that exhausted retries
  double backoff_ms_total = 0.0;
};

/// One append that exhausted its retries, preserved verbatim. `seq` is the
/// number of appends that had succeeded on this stream when the frame was
/// lost — i.e. the position the frame should have occupied. The store
/// packs later frames densely, so this is the only record of where the
/// hole is; the stream's replayable prefix ends there
/// (store::replayable_frames, given the sidecar by tool::inspect_gaps).
struct QuarantinedFrame {
  runtime::StreamKey key;
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> bytes;
};

/// Never-aborting record sink: retries runtime::IoError with bounded
/// exponential backoff; exhausted appends are quarantined instead of
/// thrown. The wrapped record therefore always completes — possibly
/// with gaps, which degraded-mode replay reconciles.
class RetryingStore final : public runtime::RecordSink {
 public:
  /// `quarantine_path`: when non-empty, quarantined frames are also
  /// appended (and flushed) to this `.cdcq` sidecar as they happen.
  RetryingStore(runtime::RecordSink* inner, const RetryPolicy& policy = {},
                std::string quarantine_path = {});

  void append(const runtime::StreamKey& key,
              std::span<const std::uint8_t> bytes) override {
    append_impl(key, bytes, nullptr);
  }
  void append_epoch(const runtime::StreamKey& key,
                    std::span<const std::uint8_t> bytes,
                    const runtime::EpochMeta& meta) override {
    append_impl(key, bytes, &meta);
  }
  void sync() override;

  [[nodiscard]] const RetryStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<QuarantinedFrame>& quarantined()
      const noexcept {
    return quarantine_;
  }

 private:
  void append_impl(const runtime::StreamKey& key,
                   std::span<const std::uint8_t> bytes,
                   const runtime::EpochMeta* meta);
  void quarantine(const runtime::StreamKey& key,
                  std::span<const std::uint8_t> bytes);
  /// Charges the backoff for 0-based retry `i`.
  void backoff(std::uint32_t i);

  runtime::RecordSink* inner_;
  RetryPolicy policy_;
  std::string quarantine_path_;
  support::Xoshiro256 jitter_;
  RetryStats stats_;
  std::vector<QuarantinedFrame> quarantine_;
  /// Successful appends per stream — positions quarantined frames.
  std::map<runtime::StreamKey, std::uint64_t> appended_;
  mutable std::mutex mutex_;
};

/// `.cdcq` sidecar parser: returns every intact quarantined frame, in
/// order, stopping at the first corrupt or truncated entry. A missing
/// file yields an empty vector.
[[nodiscard]] std::vector<QuarantinedFrame> read_quarantine(
    const std::string& path);

}  // namespace cdc::store
