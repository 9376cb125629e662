// Shared configuration of the record/replay tool.
#pragma once

#include <cstddef>
#include <cstdint>

#include "compress/deflate.h"

namespace cdc::tool {

/// The recording codecs compared in Figure 13.
enum class RecordCodec : std::uint8_t {
  kBaselineRaw,   ///< traditional 162-bit rows, no compression
  kBaselineGzip,  ///< gzip over the traditional rows
  kCdcRe,         ///< redundancy elimination only, then gzip ("CDC (RE)")
  kCdcFull,       ///< RE + permutation + LP + epoch, then gzip ("CDC")
};

[[nodiscard]] constexpr const char* codec_name(RecordCodec codec) noexcept {
  switch (codec) {
    case RecordCodec::kBaselineRaw: return "w/o Compression";
    case RecordCodec::kBaselineGzip: return "gzip";
    case RecordCodec::kCdcRe: return "CDC (RE)";
    case RecordCodec::kCdcFull: return "CDC";
  }
  return "?";
}

struct ToolOptions {
  RecordCodec codec = RecordCodec::kCdcFull;
  /// §4.4 MF identification: when false, all callsites share one record
  /// table — the "CDC (RE + PE + LPE)" variant of Figure 13.
  bool identify_callsites = true;
  /// Matched receives per chunk flush attempt (§3.5 epoch enforcement may
  /// defer past this).
  std::size_t chunk_target = 4096;
  compress::DeflateLevel level = compress::DeflateLevel::kDefault;
  /// Rank whose received-clock series is captured (Figure 1); -1 = none.
  std::int32_t clock_trace_rank = -1;
  /// Epoch-checkpoint interval: a window barrier that flushed at least one
  /// chunk ends with a store durability barrier (RecordSink::sync), so a
  /// killed recorder loses at most the chunks of one checkpoint window —
  /// one epoch — instead of everything since the last OS writeback. Frames
  /// are encoded and appended inline, so the barrier covers every frame
  /// flushed before it.
  static constexpr std::uint32_t checkpoint_interval = 1;
  /// Replay a *partial* record — e.g. one salvaged from a crashed
  /// recorder's container (store/container_reader.h repack). The record is
  /// a prefix of the original run, not a causally consistent cut, so the
  /// moment any stream exhausts its record the replayer releases ALL
  /// streams to passthrough at once: per-stream gating beyond that point
  /// would mix replayed and free-run Lamport clocks and mis-identify
  /// messages. Events surfaced before the release are a faithful per-stream
  /// prefix of the recorded order (checked by support/oracle.h
  /// check_prefix); events after it are ordinary free-run non-determinism.
  bool partial_record = false;
};

}  // namespace cdc::tool
