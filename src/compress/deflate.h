// DEFLATE (RFC 1951) encoder and decoder, and the gzip container
// (RFC 1952). Self-contained: this is the entropy-coding stage behind the
// paper's "gzip" baseline and the final stage of CDC (§3.5: "Finally, CDC
// applies gzip to the CDC encoding format").
//
// Determinism contract: for a given (input, level) the compressed bytes
// are identical on every thread and every call — the encoder keeps no
// history across calls (thread-local workspaces only recycle capacity),
// so a frame encodes to the same bytes on whichever thread flushes it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "compress/lz77.h"

namespace cdc::compress {

enum class DeflateLevel {
  kStored,   ///< no compression, stored blocks only
  kFast,     ///< short hash chains, cheapest matching
  kDefault,  ///< moderate chains, lazy matching
  kBest,     ///< deep chains, lazy matching
};

/// The LZ77 preset behind a level (kStored has no tokenizer).
Lz77Params lz77_params_for(DeflateLevel level) noexcept;

/// "stored" | "fast" | "default" | "best" (CLI flags, bench labels).
std::string_view to_string(DeflateLevel level) noexcept;

/// Inverse of to_string; nullopt for unknown names.
std::optional<DeflateLevel> deflate_level_from_name(
    std::string_view name) noexcept;

/// Compresses `input` into a raw DEFLATE stream. `reuse` donates its
/// capacity for the output (contents discarded) — pass a recycled buffer
/// to make steady-state compression allocation-free.
std::vector<std::uint8_t> deflate_compress(
    std::span<const std::uint8_t> input,
    DeflateLevel level = DeflateLevel::kDefault,
    std::vector<std::uint8_t> reuse = {});

/// Decompresses a raw DEFLATE stream. Returns std::nullopt on malformed
/// input (never aborts: record files may be truncated or corrupt).
/// Batched decoder: 64-bit refill loop over the two-level Huffman tables
/// plus overlap-aware 8-byte match copies — the read-side twin of the
/// encoder's put_bits fast path. `reuse` donates its capacity for the
/// output (contents discarded), making steady-state decode allocation-free.
std::optional<std::vector<std::uint8_t>> deflate_decompress(
    std::span<const std::uint8_t> compressed,
    std::vector<std::uint8_t> reuse = {});

/// The seed's bit-serial decoder, kept as the oracle the differential
/// decode battery checks the batched decoder against: identical bytes on
/// accept, identical rejection on truncated or corrupt streams.
std::optional<std::vector<std::uint8_t>> deflate_decompress_reference(
    std::span<const std::uint8_t> compressed);

/// Compresses into a gzip member (header + DEFLATE + CRC32 + ISIZE).
/// `reuse` donates capacity as in deflate_compress.
std::vector<std::uint8_t> gzip_compress(
    std::span<const std::uint8_t> input,
    DeflateLevel level = DeflateLevel::kDefault,
    std::vector<std::uint8_t> reuse = {});

/// Decompresses a single gzip member, verifying CRC32 and ISIZE.
/// `reuse` donates output capacity as in deflate_decompress.
std::optional<std::vector<std::uint8_t>> gzip_decompress(
    std::span<const std::uint8_t> compressed,
    std::vector<std::uint8_t> reuse = {});

namespace detail {

/// Table-driven symbol maps used on the encoder hot path: length (3..258)
/// to length code 0..28, distance (1..32768) to distance code 0..29.
int length_to_code(int length) noexcept;
int dist_to_code(int distance) noexcept;

/// The seed's reverse linear scans, kept as the reference the exhaustive
/// table test checks the fast maps against.
int length_to_code_reference(int length) noexcept;
int dist_to_code_reference(int distance) noexcept;

}  // namespace detail

}  // namespace cdc::compress
