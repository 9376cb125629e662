// Content-addressed chunk table.
//
// Chunks are keyed by a 122-bit strong hash (two independent Karp-Rabin
// polynomial hashes over the full chunk); identical content interns to
// one ordinal no matter which caller brought it in, and a hash collision
// between distinct contents is caught by a byte compare on the hit path
// and stored as a separate ordinal — correctness never rests on the hash
// alone. Ordinals are dense and assigned in intern order, so a manifest
// can reference chunks by small varints and a table can be rebuilt by
// re-interning its chunks in the order they were first stored.
//
// Refcounts track how many references point at each chunk; they serve
// integrity checks and dedup statistics rather than reclamation.
//
// The corpus (corpus/corpus.h) does not use this table: on records,
// chunk dedup never beat raw bytes, gzip or a reference delta (DESIGN.md
// §11), so member streams are not chunked.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "corpus/rolling.h"

namespace cdc::corpus {

/// Strong content hash of one chunk: two Karp-Rabin polynomial hashes
/// with independent bases, 61 bits each.
struct ChunkId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend auto operator<=>(const ChunkId&, const ChunkId&) = default;
};

[[nodiscard]] ChunkId chunk_id(std::span<const std::uint8_t> bytes) noexcept;

class ChunkStore {
 public:
  struct InternResult {
    std::uint32_t ordinal = 0;
    bool inserted = false;  ///< false: dedup hit on an existing chunk
  };

  /// Interns `bytes`, returning the ordinal of the unique chunk with that
  /// content and bumping its refcount by one (one call = one manifest
  /// reference). Deterministic: the same sequence of intern calls yields
  /// the same ordinals everywhere.
  InternResult intern(std::span<const std::uint8_t> bytes);

  /// Re-admits a chunk while rebuilding from a container, with refcount 0
  /// (manifests re-add their references as they load). Returns the
  /// ordinal, which for a clean rebuild equals the frame's position.
  std::uint32_t adopt(std::span<const std::uint8_t> bytes);

  /// Adds one manifest reference to an existing ordinal.
  void add_reference(std::uint32_t ordinal);

  /// Side-effect-free membership probe (a caller can price a chunked
  /// stream before committing to intern it).
  [[nodiscard]] std::optional<std::uint32_t> peek(
      std::span<const std::uint8_t> bytes) const {
    return lookup(bytes, chunk_id(bytes));
  }

  [[nodiscard]] std::span<const std::uint8_t> chunk(
      std::uint32_t ordinal) const;
  [[nodiscard]] const ChunkId& id(std::uint32_t ordinal) const;
  [[nodiscard]] std::uint64_t ref_count(std::uint32_t ordinal) const;

  /// Number of unique chunks.
  [[nodiscard]] std::uint32_t count() const noexcept {
    return static_cast<std::uint32_t>(chunks_.size());
  }
  /// Bytes of unique chunk content held (what dedup actually stores).
  [[nodiscard]] std::uint64_t stored_bytes() const noexcept {
    return stored_bytes_;
  }
  /// Bytes presented across all intern calls (what dedup saved from).
  [[nodiscard]] std::uint64_t presented_bytes() const noexcept {
    return presented_bytes_;
  }

 private:
  struct Entry {
    ChunkId id;
    std::vector<std::uint8_t> bytes;
    std::uint64_t refs = 0;
  };
  struct IdHash {
    std::size_t operator()(const ChunkId& id) const noexcept {
      return static_cast<std::size_t>(id.hi ^ (id.lo * 0x9e3779b97f4a7c15ull));
    }
  };

  std::uint32_t insert_unique(std::span<const std::uint8_t> bytes,
                              const ChunkId& id);
  [[nodiscard]] std::optional<std::uint32_t> lookup(
      std::span<const std::uint8_t> bytes, const ChunkId& id) const;

  std::vector<Entry> chunks_;
  /// id → ordinals with that id (more than one only on a true collision).
  std::unordered_map<ChunkId, std::vector<std::uint32_t>, IdHash> by_id_;
  std::uint64_t stored_bytes_ = 0;
  std::uint64_t presented_bytes_ = 0;
};

}  // namespace cdc::corpus
