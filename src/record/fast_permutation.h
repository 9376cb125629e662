// Fast permutation encode/decode (§4.1's "fast edit distance" speed class).
//
// The reference implementations in edit_distance.h simulate the move-op
// decoder on a flat vector: O(N + N·D) per chunk, which is fine at the
// default 4K-event chunks but quadratic-ish for large ones. This module
// provides the same transformations in O((N + D) log N).
//
// Encode never builds the working list: it counts. Settled elements (LIS
// members, plus each moved element once its op is emitted) always stand in
// observed order, and an element y not yet processed is preceded by
// exactly the settled elements observed before Q_y, the observed position
// of the smallest LIS element above y. So an op's source position counts
// settled observed positions (a bitmap with a Fenwick tree over its
// words), and its target adds the unprocessed elements standing before
// the element's settled predecessor in B — a run of the moved elements,
// counted by a static prefix sum over their Q values.
//
// Decode (fast_apply_moves) does need the list: WorkingList, a blocked
// list plus a Fenwick tree over block sizes, serves decode only. Both
// engines are cross-checked against the reference ones in the tests;
// encode_chunk and observed_reference_indices use the fast engine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "record/edit_distance.h"

namespace cdc::record {

/// Same contract as encode_permutation: minimal move ops, sorted by
/// reference index, sequential-decode semantics.
std::vector<MoveOp> fast_encode_permutation(
    std::span<const std::uint32_t> b);

/// Same contract as apply_moves.
std::vector<std::uint32_t> fast_apply_moves(std::size_t n,
                                            std::span<const MoveOp> ops);

namespace detail {

/// Fenwick tree over 0..n-1 with point update / prefix sum / select.
class Fenwick {
 public:
  explicit Fenwick(std::size_t n) : tree_(n + 1, 0) {}
  /// A tree over `counts`, built in O(n).
  explicit Fenwick(std::span<const int> counts);

  void add(std::size_t index, int delta);
  /// Sum over [0, index).
  [[nodiscard]] int prefix(std::size_t index) const;
  /// Smallest index such that prefix(index + 1) >= target (target >= 1).
  [[nodiscard]] std::size_t select(int target) const;

 private:
  std::vector<int> tree_;
};

/// The working list of reference indices, initially the identity, as a
/// blocked list: values sit in fixed-capacity blocks of one flat array, a
/// value->block map finds an element's block, and a Fenwick tree over the
/// block sizes in list order turns a block into the position of its first
/// element and a position into its block. Every operation costs
/// O(log(N / kBlockCapacity)) plus one scan or shift within a block.
class WorkingList {
 public:
  /// Elements per block. Blocks start half full and a full block splits
  /// into two half-full ones, so splits (each O(N / kBlockCapacity)) take
  /// at least kBlockCapacity / 2 inserts apiece.
  static constexpr std::size_t kBlockCapacity = 256;

  explicit WorkingList(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Removes element `value`; returns the position it had.
  std::size_t erase(std::uint32_t value);

  /// Inserts element `value` so that exactly `position` elements precede
  /// it.
  void insert_at(std::size_t position, std::uint32_t value);

  /// The elements in list order. O(N).
  [[nodiscard]] std::vector<std::uint32_t> to_vector() const;

 private:
  [[nodiscard]] std::uint32_t* block(std::uint32_t id) noexcept {
    return slots_.data() + std::size_t{id} * kBlockCapacity;
  }
  [[nodiscard]] const std::uint32_t* block(std::uint32_t id) const noexcept {
    return slots_.data() + std::size_t{id} * kBlockCapacity;
  }
  /// Index of `value` within its block.
  [[nodiscard]] std::size_t offset_in_block(std::uint32_t value) const;
  /// Moves the upper half of the full block at list index `rank` into a new
  /// block placed right after it.
  void split(std::size_t rank);
  void rebuild_sizes();

  std::vector<std::uint32_t> slots_;       ///< kBlockCapacity per block id
  std::vector<std::uint32_t> block_size_;  ///< by block id
  std::vector<std::uint32_t> order_;       ///< list index -> block id
  std::vector<std::uint32_t> rank_;        ///< block id -> list index
  std::vector<std::uint32_t> block_of_;    ///< value -> block id
  Fenwick sizes_;                          ///< block sizes by list index
  std::size_t count_ = 0;
};

}  // namespace detail

}  // namespace cdc::record
