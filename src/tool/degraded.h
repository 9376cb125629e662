// Degraded-mode replay: longest-consistent-prefix salvage of a damaged
// record container, machine-readable gap reporting, and replay coverage
// accounting.
//
// The paper's record is only useful if it is still replayable after the
// run that produced it went wrong: a rank killed mid-run truncates its
// streams, a torn write corrupts a frame, a recorder killed before seal()
// leaves no index. Replay consumes streams strictly in sequence, so a frame
// after a mid-stream gap is unreachable: splicing it in would mis-align
// reference indices. Degraded replay therefore loads, per stream, the
// longest consistent prefix that store::replayable_frames decides — frames
// seq 0..k-1 all intact, the same frames repack keeps — and replays that
// under ToolOptions::partial_record, where the replayer gates the prefix
// faithfully and releases survivors to passthrough once any stream's
// record runs out (Replayer::on_stall bridges waits the truncated record
// can no longer satisfy).
//
// The GapReport is the machine-readable contract (`record_inspector
// --gaps`): per stream, how many frames the container promises, how many
// form the replayable prefix, what defect ended it, plus quarantined
// frames from the `.cdcq` sidecar (store/resilient.h) and container-level
// diagnostics. Coverage fractions feed the obs layer and the fig19 bench.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "runtime/storage.h"

namespace cdc::tool {

/// One stream's salvage outcome.
struct StreamGap {
  runtime::StreamKey key;
  /// Frames the stream should have: what the container lists
  /// (store::ContainerReader::Listing) plus quarantined frames from the
  /// `.cdcq` sidecar — those occupy stream positions the container packs
  /// over and cannot show.
  std::uint64_t frames_listed = 0;
  /// Longest consistent prefix: frames seq 0..k-1 intact and in order,
  /// stopping at the stream's first quarantine hole.
  std::uint64_t frames_intact = 0;
  std::uint64_t bytes_kept = 0;   ///< payload bytes of the kept prefix
  std::uint64_t events_kept = 0;  ///< decodable receive events in the prefix
  bool truncated = false;         ///< a gap follows the prefix
  std::string gap_reason;         ///< defect that ended the prefix
};

/// Machine-readable damage summary of one record container (+ sidecar).
struct GapReport {
  std::string container_path;
  bool container_sealed = false;  ///< header + index parsed and CRC-clean
  /// Header/index diagnostics and where an index-less scan stopped.
  std::vector<std::string> container_errors;
  std::vector<StreamGap> streams;             ///< key order
  std::uint64_t quarantined_frames = 0;  ///< intact `.cdcq` sidecar entries
  std::uint64_t quarantined_bytes = 0;

  [[nodiscard]] std::uint64_t frames_listed_total() const noexcept;
  [[nodiscard]] std::uint64_t frames_intact_total() const noexcept;
  [[nodiscard]] std::uint64_t events_kept_total() const noexcept;
  /// Replayable fraction of the container's frames in [0, 1]; 1.0 for an
  /// empty (zero-frame) container — nothing was lost.
  [[nodiscard]] double frame_coverage() const noexcept;
  /// Anything to report: a truncated stream, a container-level error, or
  /// quarantined frames. False means the record is whole.
  [[nodiscard]] bool degraded() const noexcept;

  /// Deterministic JSON document (the `--gaps` schema; see DESIGN.md §9).
  [[nodiscard]] std::string to_json() const;
  void print(std::FILE* out) const;
};

/// Inspects `container_path` — sealed, abandoned mid-run, truncated, or
/// empty — plus the optional `.cdcq` quarantine sidecar. Never aborts on
/// damage: an unreadable file yields an empty report with the diagnostic
/// in container_errors.
[[nodiscard]] GapReport inspect_gaps(const std::string& container_path,
                                     const std::string& quarantine_path = {});

/// The degraded-replay input: each stream's longest consistent prefix,
/// loaded into memory, with the gap report that describes what is missing.
struct DegradedRecord {
  runtime::MemoryStore store;
  GapReport report;
};

/// Loads the longest-consistent-prefix record. Never fails on damage; the
/// result's report carries the diagnostics. Publishes replay-coverage
/// metrics (`replay.coverage_pct`, `replay.gap_streams`) to the obs layer.
[[nodiscard]] std::unique_ptr<DegradedRecord> load_degraded(
    const std::string& container_path,
    const std::string& quarantine_path = {});

}  // namespace cdc::tool
