// On-storage chunk framing shared by the recorder and the replayer.
//
// Every flushed chunk becomes one frame:
//   u8 magic (0xC4) | u8 codec | u8 stored_raw | varint meta |
//   varint raw_len | varint payload_len | payload
// `meta` carries codec-specific metadata (the baseline formats need the
// row count to parse headerless 162-bit rows; CDC frames carry 0). The
// payload is DEFLATE-compressed unless that would grow it (stored_raw).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "compress/deflate.h"
#include "runtime/storage.h"
#include "support/binary.h"

namespace cdc::tool {

inline constexpr std::uint8_t kFrameMagic = 0xC4;

struct Frame {
  std::uint8_t codec = 0;
  std::uint64_t meta = 0;
  std::vector<std::uint8_t> payload;  ///< decompressed
};

/// One not-yet-encoded frame: what a FrameSink receives for each sealed
/// chunk. `compress == false` is the "w/o Compression" baseline,
/// which frames its payload verbatim (stored-raw) by construction rather
/// than by the size fallback.
struct FrameJob {
  std::uint8_t codec = 0;
  std::uint64_t meta = 0;
  bool compress = true;
  compress::DeflateLevel level = compress::DeflateLevel::kDefault;
  std::vector<std::uint8_t> payload;  ///< raw (uncompressed) chunk bytes
  /// Epoch metadata of the chunk, when the flusher knows it. Rides through
  /// the sink to RecordSink::append_epoch so epoch-aware stores build
  /// the container's random-access epoch index; plain stores ignore it.
  std::optional<runtime::EpochMeta> epoch;
};

/// Encodes one job into its on-storage frame bytes. Deterministic: the
/// same job yields the same bytes on any thread, so a record encoded by
/// the simulated recorder, by a cdc_served session worker, or by a local
/// rebuild is bit-identical.
std::vector<std::uint8_t> encode_frame(const FrameJob& job);

/// encode_frame with a recycled output buffer: `reuse` donates capacity
/// (contents discarded). The bytes produced are identical to
/// encode_frame's — reuse affects allocations only.
std::vector<std::uint8_t> encode_frame_into(const FrameJob& job,
                                            std::vector<std::uint8_t> reuse);

/// Appends one frame to `out`, compressing the payload with DEFLATE
/// unless `deflate` is false (FrameJob::compress) or that would grow it.
/// Every frame counts in the `record.stage.deflate.*` counters, as
/// read_frame counts every frame in `record.stage.inflate.*`.
void write_frame(support::ByteWriter& out, std::uint8_t codec,
                 std::uint64_t meta, std::span<const std::uint8_t> payload,
                 compress::DeflateLevel level, bool deflate = true);

/// Parses the next frame; std::nullopt at end of stream or on corruption.
std::optional<Frame> read_frame(support::ByteReader& in);

}  // namespace cdc::tool
