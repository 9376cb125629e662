// The CDC record-container format: an append-only segment log that packs
// every (rank, callsite) stream of one recorded run into a single file,
// the way the paper's per-process records land on one node-local device
// (§4.2). Layout:
//
//   [header]   8 B   "CDCC" | version u8 (=1) | 3 reserved zero bytes
//   [frame]*         data frames, appended in commit order
//   [epochs]         optional epoch index (see below)
//   [epoch footer] 20 B  epoch crc32 u32 | epoch length u64 | "CDCEPOX1"
//   [index]          stream directory (per-stream frame offsets)
//   [footer]  20 B   index crc32 u32 | index length u64 | "CDCINDX1"
//
// Each frame is individually CRC32-protected (compress/crc32.h):
//
//   u8 0xF7 | svarint rank | varint callsite | varint seq |
//   varint payload_len | payload | u32 crc32(everything after the magic)
//
// encode_frame and parse_frame below are the only code that spells this
// layout; the `.cdcq` quarantine sidecar (store/resilient.h) reuses it
// with its own magic byte.
//
// The fixed-size footer makes stream lookup O(1 + index) on open: seek to
// EOF-20, validate the magic, seek back over the index, CRC-check it, and
// every stream's frame offsets are known without scanning the data region.
// A container whose footer or index is damaged is still recoverable by
// sequential scan (see ContainerReader::verify and repack_container).
//
// The epoch index is the random-access side of the same trick: one record
// per (stream, epoch) mapping the epoch to its frame offset and event
// counts, so a replay window [lo, hi) knows which frames to decode and how
// many events precede the window without inflating the whole stream.
// Payload layout (all varints):
//
//   varint stream_count
//   per stream: svarint rank | varint callsite | varint epoch_count
//     per epoch: varint frame-offset delta | varint matched | varint unmatched
//
// The section is optional — containers written before it existed (or whose
// appenders carried no epoch metadata) simply omit it, and a damaged epoch
// section degrades to sequential decode (loudly, via the
// store.container.epoch_fallbacks counter) instead of failing the open:
// the epoch index is an accelerator, never a trust anchor.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "runtime/storage.h"
#include "support/binary.h"

namespace cdc::store {

inline constexpr std::uint8_t kContainerMagic[4] = {'C', 'D', 'C', 'C'};
inline constexpr std::uint8_t kContainerVersion = 1;
inline constexpr std::size_t kContainerHeaderSize = 8;

inline constexpr std::uint8_t kFrameMagic = 0xF7;

inline constexpr std::uint8_t kFooterMagic[8] = {'C', 'D', 'C', 'I',
                                                 'N', 'D', 'X', '1'};
inline constexpr std::size_t kContainerFooterSize = 4 + 8 + 8;

inline constexpr std::uint8_t kEpochFooterMagic[8] = {'C', 'D', 'C', 'E',
                                                      'P', 'O', 'X', '1'};
inline constexpr std::size_t kEpochFooterSize = 4 + 8 + 8;

/// One frame as parse_frame found it (the payload aliases the input).
struct ParsedFrame {
  runtime::StreamKey key;
  std::uint64_t seq = 0;
  std::span<const std::uint8_t> payload;
  std::uint64_t frame_size = 0;  ///< bytes consumed including magic+crc
  bool crc_ok = false;
  bool parsed = false;  ///< header fields were decodable
  std::string parse_error;
};

/// Appends one frame with the given magic byte to `out`.
void encode_frame(std::uint8_t magic, const runtime::StreamKey& key,
                  std::uint64_t seq, std::span<const std::uint8_t> payload,
                  support::ByteWriter& out);

/// Parses the frame at the start of `region`, never reading past its end.
[[nodiscard]] ParsedFrame parse_frame(std::uint8_t magic,
                                      std::span<const std::uint8_t> region);

/// Index entry for one stream: where its frames live in the data region.
struct StreamIndexEntry {
  runtime::StreamKey key;
  std::vector<std::uint64_t> frame_offsets;  ///< file offset of each frame
  std::uint64_t payload_bytes = 0;           ///< sum of frame payload sizes
};

/// One epoch of one stream: the frame that holds it and its event counts.
struct EpochRecord {
  std::uint64_t frame_offset = 0;  ///< file offset of the epoch's frame
  std::uint64_t matched = 0;       ///< delivered (gated) events
  std::uint64_t unmatched = 0;     ///< recorded unmatched tests
};

/// Epoch index for one stream. Epoch e lives in the stream's e-th frame —
/// the recorder seals exactly one chunk per frame — so the offsets here
/// mirror StreamIndexEntry::frame_offsets, which is the redundancy the
/// reader cross-checks to catch a stale or mismatched epoch section.
struct StreamEpochIndex {
  runtime::StreamKey key;
  std::vector<EpochRecord> epochs;

  /// Delivered events in epochs [0, epoch) — the event-index origin of a
  /// replay window starting at `epoch` (clamped to the stream's end).
  [[nodiscard]] std::uint64_t matched_before(std::uint64_t epoch) const {
    std::uint64_t total = 0;
    for (std::uint64_t e = 0; e < epoch && e < epochs.size(); ++e)
      total += epochs[e].matched;
    return total;
  }
};

/// One defect found while verifying a container.
struct FrameDefect {
  std::uint64_t offset = 0;  ///< file offset of the affected frame
  bool key_known = false;    ///< stream identification succeeded
  runtime::StreamKey key;
  std::uint64_t seq = 0;  ///< per-stream frame sequence number
  std::string reason;     ///< e.g. "frame crc mismatch"
};

/// Result of a full-container verification pass.
struct VerifyReport {
  bool ok = true;
  std::uint64_t frames_checked = 0;
  std::uint64_t payload_bytes = 0;
  std::vector<FrameDefect> bad_frames;
  /// Container-level problems (header, index, footer, truncation).
  std::vector<std::string> container_errors;

  [[nodiscard]] std::string summary() const;
};

}  // namespace cdc::store
