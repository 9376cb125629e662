// The per-run pipeline report: one structured answer to "where did the
// bytes and the time go" for a record/replay run.
//
// Two data sources fill it:
//   * the run's metrics snapshot, carried whole — every counter, gauge and
//     histogram reaches print() and to_json() under the name its emitter
//     registered (DESIGN.md §8), so a new metric needs no edit here;
//   * a record container on disk, decoded frame by frame (byte totals,
//     frame counts per codec) — filled by tool::fill_container_section,
//     which lives above the store layer.
// When both are present, reconcile() cross-checks them: the bytes the
// encoder reported writing must equal the bytes the container actually
// holds. Only the metrics that check and the derived rates read are named
// in report.cc.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "obs/metrics.h"

namespace cdc::obs {

/// What a frame-by-frame decode of the container on disk found (all zero
/// without a container).
struct ContainerSection {
  std::uint64_t file_bytes = 0;
  std::uint64_t frames = 0;
  /// Tool-frame bytes (header + compressed payload) summed over frames —
  /// what must match record.frame.bytes_out.
  std::uint64_t stored_bytes = 0;
  /// Decompressed chunk payload bytes (the deflate stage's input side).
  std::uint64_t raw_bytes = 0;
  std::uint64_t chunk_events = 0;  ///< matched N over CDC chunks
  std::uint64_t chunk_values = 0;  ///< stored-value accounting
  std::map<std::string, std::uint64_t> codec_frames;
  bool sealed = false;
};

struct PipelineReport {
  /// The live metrics of the run (empty for a report on a cold container).
  MetricsSnapshot metrics;
  ContainerSection container;

  bool reconciled = false;
  std::string reconcile_note;

  /// DEFLATE stage throughput in MB/s (raw bytes in over stage wall time);
  /// 0 when the stage recorded no time.
  [[nodiscard]] double deflate_mb_per_s() const;

  /// Inflate stage throughput in MB/s measured on the raw (decompressed)
  /// side, so it is directly comparable to deflate_mb_per_s(); 0 when the
  /// stage recorded no time.
  [[nodiscard]] double inflate_mb_per_s() const;

  /// Fraction of frame encodes that reused a recycled output buffer,
  /// in [0, 1]; 0 when nothing was encoded.
  [[nodiscard]] double pool_hit_rate() const;

  /// Corpus dedup ratio: member raw bytes over corpus stored bytes (the
  /// "dedup" column); 0 when no corpus ingest ran.
  [[nodiscard]] double corpus_dedup_ratio() const;

  /// Cross-checks live totals against the container section (call after
  /// both are filled); sets `reconciled`/`reconcile_note` and returns
  /// `reconciled`. With no live data it only checks the container's
  /// internal consistency.
  bool reconcile();

  [[nodiscard]] std::string to_json() const;
  void print(std::FILE* out) const;
};

}  // namespace cdc::obs
