// Differential compression of one record against a reference record.
//
// Implements the correcting algorithm of Ajtai, Burns, Fagin, Long &
// Stockmeyer, "Compactly Encoding Unstructured Inputs with Differential
// Compression" (JACM 49(3), 2002): ~linear time, O(q) space. The whole
// reference is checkpointed into a q-slot footprint table up front
// (every k-th offset so it fits), and a version match extends BACKWARD
// as well as forward, retracting already-emitted literal bytes — the
// corrective step that recovers blocks which moved or were rearranged.
//
// The result is a command stream — COPY(read_off, len) from the
// reference plus ADD literals — serialized with explicit write offsets,
// so commands may appear in any order and apply_delta rebuilds the
// version into a fresh buffer whatever the order.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace cdc::corpus {

/// One reconstruction command. Copies read from the reference; literals
/// carry their bytes. `write_off` is the command's position in the
/// version being rebuilt.
struct DeltaCommand {
  enum class Kind : std::uint8_t { kAdd, kCopy };
  Kind kind = Kind::kAdd;
  std::uint64_t write_off = 0;
  std::uint64_t read_off = 0;              ///< kCopy only
  std::uint64_t length = 0;                ///< copy length / literal length
  std::vector<std::uint8_t> bytes;         ///< kAdd literal payload
};

struct DeltaStats {
  std::uint64_t copies = 0;
  std::uint64_t adds = 0;
  std::uint64_t copied_bytes = 0;
  std::uint64_t literal_bytes = 0;
  std::uint64_t corrections = 0;       ///< literal bytes retracted by
                                       ///< backward extension
};

/// Serializes a command stream into the on-storage delta format:
///   u8 'D' | u8 version(1) | u8 algorithm(2) | varint ref_len |
///   varint ver_len | commands | u8 0x00
///   command := u8 0x01 | svarint dwrite | varint len | bytes     (ADD)
///            | u8 0x02 | svarint dwrite | svarint dread |
///              varint len                                        (COPY)
/// where write_off = cursor + dwrite (cursor = end of the previous
/// command's write extent, 0 initially) and read_off = write_off + dread.
/// Record streams are fixed-width rows, so cross-member edits keep most
/// copies on the diagonal: dwrite == dread == 0 and a COPY costs 4 bytes.
/// The algorithm byte names the correcting encoder; it is the only one.
[[nodiscard]] std::vector<std::uint8_t> serialize_delta(
    std::span<const DeltaCommand> commands, std::uint64_t ref_len,
    std::uint64_t ver_len);

/// Encodes `version` against `reference`: every copy, then every
/// literal, each group in version order, serialized as above.
/// Deterministic in (reference, version).
[[nodiscard]] std::vector<std::uint8_t> encode_delta(
    std::span<const std::uint8_t> reference,
    std::span<const std::uint8_t> version, DeltaStats* stats = nullptr);

/// Sizes recorded in a serialized delta's header.
struct DeltaHeader {
  std::uint64_t ref_len = 0;
  std::uint64_t ver_len = 0;
};
[[nodiscard]] std::optional<DeltaHeader> read_delta_header(
    std::span<const std::uint8_t> delta);

/// Rebuilds the version into a fresh buffer, reading from `reference`.
/// nullopt on a malformed delta (never aborts: deltas live on storage).
/// Every command is bounds-checked before the output is allocated, and a
/// header declaring more version bytes than its commands write is
/// rejected, so a forged ver_len cannot size the allocation.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> apply_delta(
    std::span<const std::uint8_t> reference,
    std::span<const std::uint8_t> delta);

}  // namespace cdc::corpus
