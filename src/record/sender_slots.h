// Dense sender indexing shared by the per-chunk record kernels.
//
// The clean-cut search, the reference-order pass and the sender-column
// writer all need, for a run of sender ids, the distinct ids in ascending
// order and each entry's index ("slot") among them. Senders are ranks,
// small and dense, so a table over [min, max] assigns every slot in two
// linear passes. Ids spread more than kDenseRangePerEntry times wider than
// the entry count (a few entries from far-apart ranks, or ids that are
// not ranks) make the table cost more than it saves, and go through
// sort + unique and a binary search per entry instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cdc::record::detail {

struct SenderSlots {
  std::vector<std::int32_t> distinct;  ///< ascending, unique
  std::vector<std::uint32_t> slot;     ///< per entry: index into distinct
};

/// The widest id range per entry that still takes the table. Measured
/// with both branches forced: the table costs about 1 ns per range entry
/// and sort + binary search 20 to 190 ns per entry (108 to 4,096 entries),
/// so the table wins up to a range of 16 to 64 times the entry count.
inline constexpr std::uint64_t kDenseRangePerEntry = 16;

/// Fills `out` for the `n` senders `sender_of(0..n-1)`.
template <typename SenderOf>
void assign_sender_slots(std::size_t n, SenderOf&& sender_of,
                         SenderSlots& out) {
  out.distinct.clear();
  out.slot.resize(n);
  if (n == 0) return;
  std::int32_t lo = sender_of(0);
  std::int32_t hi = lo;
  for (std::size_t i = 1; i < n; ++i) {
    const std::int32_t s = sender_of(i);
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  const std::uint64_t range =
      static_cast<std::uint64_t>(std::int64_t{hi} - std::int64_t{lo}) + 1;
  if (range <= kDenseRangePerEntry * n) {
    constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
    std::vector<std::uint32_t> table(static_cast<std::size_t>(range), kAbsent);
    for (std::size_t i = 0; i < n; ++i)
      table[static_cast<std::size_t>(sender_of(i) - lo)] = 0;
    for (std::size_t r = 0; r < table.size(); ++r) {
      if (table[r] == kAbsent) continue;
      table[r] = static_cast<std::uint32_t>(out.distinct.size());
      out.distinct.push_back(
          static_cast<std::int32_t>(lo + static_cast<std::int64_t>(r)));
    }
    for (std::size_t i = 0; i < n; ++i)
      out.slot[i] = table[static_cast<std::size_t>(sender_of(i) - lo)];
    return;
  }
  out.distinct.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.distinct[i] = sender_of(i);
  std::sort(out.distinct.begin(), out.distinct.end());
  out.distinct.erase(std::unique(out.distinct.begin(), out.distinct.end()),
                     out.distinct.end());
  for (std::size_t i = 0; i < n; ++i)
    out.slot[i] = static_cast<std::uint32_t>(
        std::lower_bound(out.distinct.begin(), out.distinct.end(),
                         sender_of(i)) -
        out.distinct.begin());
}

}  // namespace cdc::record::detail
