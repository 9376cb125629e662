// Content-defined chunking over byte streams.
//
// Splits a byte stream into chunks whose boundaries depend only on local
// content: a cut lands where the Karp-Rabin hash of the trailing window
// matches a seed-derived pattern. Inserting or deleting bytes therefore
// shifts only the chunks around the edit — downstream chunks
// resynchronize on the same content positions, which is what lets a
// content-addressed chunk table (corpus/chunk_store.h) deduplicate
// near-identical inputs. Deterministic in (bytes, config): same input,
// same seed, same cuts, on every machine.
//
// The corpus (corpus/corpus.h) does not chunk member streams: on
// records, chunks were chosen for 0 of fig21's 6,272 streams (DESIGN.md
// §11).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "corpus/rolling.h"

namespace cdc::corpus {

struct ChunkerConfig {
  /// Rolling-window width in bytes. Cuts react to the last `window` bytes
  /// only; larger windows make boundaries more selective, smaller ones
  /// resynchronize faster after an edit.
  std::size_t window = 32;
  /// Hard floor: no cut before `min_size` bytes (the window restarts at
  /// each cut, so boundary checks are suppressed until then). The final
  /// chunk of a stream may be shorter — there is nothing left to extend
  /// it with.
  std::size_t min_size = 128;
  /// Expected chunk size between min and max: a cut fires when the low
  /// log2(avg_size) hash bits match the seed pattern. Must be a power of
  /// two.
  std::size_t avg_size = 1024;
  /// Hard ceiling: a cut is forced at `max_size` bytes even if the
  /// content never matches.
  std::size_t max_size = 4096;
  /// Seeds both the polynomial base and the boundary pattern, so two
  /// corpora with different seeds cut the same content differently.
  std::uint64_t seed = 1;
};

/// Cut points of `bytes` under `config`: ascending offsets, each the
/// exclusive end of one chunk, always ending with bytes.size() (for
/// non-empty input). Every chunk but the last is in
/// [min_size, max_size]; the last is in (0, max_size].
[[nodiscard]] std::vector<std::size_t> chunk_boundaries(
    std::span<const std::uint8_t> bytes, const ChunkerConfig& config);

/// The chunks themselves, as views aliasing `bytes`.
[[nodiscard]] std::vector<std::span<const std::uint8_t>> chunk_spans(
    std::span<const std::uint8_t> bytes, const ChunkerConfig& config);

}  // namespace cdc::corpus
