#include "record/edit_distance.h"

#include <algorithm>
#include <limits>

#include "support/check.h"

namespace cdc::record {

std::vector<bool> lis_membership(std::span<const std::uint32_t> b) {
  const std::size_t n = b.size();
  std::vector<bool> keep(n, false);
  if (n == 0) return keep;
  CDC_CHECK(n < std::numeric_limits<std::uint32_t>::max());

  // Patience sorting: tails[k] = index of the smallest possible tail of an
  // increasing subsequence of length k+1, tail_values[k] its value; parent
  // links recover one LIS.
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> tails;
  std::vector<std::uint32_t> tail_values;
  std::vector<std::uint32_t> parent(n, kNone);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t v = b[i];
    // Near-sorted streams mostly extend the longest subsequence, or land
    // just below its end: gallop back from the end before the binary
    // search, so a local swap costs O(1).
    std::size_t hi = tail_values.size();
    std::size_t lo = hi;
    for (std::size_t step = 1; lo > 0 && tail_values[lo - 1] >= v; step *= 2) {
      hi = lo;
      lo = lo > step ? lo - step : 0;
    }
    // tail_values[lo - 1] < v (or lo == 0) <= tail_values[hi - 1].
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(tail_values.begin() + static_cast<std::ptrdiff_t>(lo),
                         tail_values.begin() + static_cast<std::ptrdiff_t>(hi),
                         v) -
        tail_values.begin());
    if (k > 0) parent[i] = tails[k - 1];
    if (k == tails.size()) {
      tails.push_back(i);
      tail_values.push_back(v);
    } else {
      tails[k] = i;
      tail_values[k] = v;
    }
  }
  for (std::uint32_t cur = tails.back(); cur != kNone; cur = parent[cur])
    keep[cur] = true;
  return keep;
}

std::vector<MoveOp> encode_permutation(std::span<const std::uint32_t> b) {
  const std::size_t n = b.size();
  const std::vector<bool> keep = lis_membership(b);

  // Moved elements, processed in increasing reference-index (value) order.
  std::vector<std::uint32_t> moved;
  for (std::size_t i = 0; i < n; ++i)
    if (!keep[i]) moved.push_back(b[i]);
  std::sort(moved.begin(), moved.end());

  // Position of each element within B, for the target computation.
  std::vector<std::size_t> pos_in_b(n);
  for (std::size_t i = 0; i < n; ++i) pos_in_b[b[i]] = i;

  // Simulate the decoder: the working list starts as the identity. An
  // element is "settled" once it will never move again (LIS members from
  // the start, moved elements after their op). Settled elements always
  // appear in B-relative order, so inserting x right after the c-th
  // settled element — c = number of settled elements before x in B —
  // fixes every (x, settled) pair; each (x, not-yet-processed) pair is
  // fixed later by the other element's own op. Hence the final list is B.
  std::vector<MoveOp> ops;
  ops.reserve(moved.size());
  std::vector<std::uint32_t> work(n);
  for (std::uint32_t v = 0; v < n; ++v) work[v] = v;
  std::vector<bool> settled(n);
  for (std::size_t i = 0; i < n; ++i) settled[b[i]] = keep[i];

  for (const std::uint32_t x : moved) {
    // One pass: current index of x and the number of settled elements
    // preceding x in the observed order.
    std::int64_t j = -1;
    std::int64_t c = 0;
    for (std::size_t i = 0; i < work.size(); ++i) {
      const std::uint32_t v = work[i];
      if (v == x) {
        j = static_cast<std::int64_t>(i);
      } else if (settled[v] && pos_in_b[v] < pos_in_b[x]) {
        ++c;
      }
    }
    CDC_CHECK(j >= 0);
    work.erase(work.begin() + j);
    // Target index: just past the c-th settled element.
    std::int64_t t = 0;
    for (std::int64_t seen = 0; seen < c; ++t)
      if (settled[work[static_cast<std::size_t>(t)]]) ++seen;
    work.insert(work.begin() + t, x);
    settled[x] = true;
    ops.push_back(MoveOp{static_cast<std::int64_t>(x), t - j});
  }

  // The simulation must have reconstructed B exactly.
  for (std::size_t i = 0; i < n; ++i)
    CDC_CHECK_MSG(work[i] == b[i], "permutation encoder self-check failed");
  return ops;
}

std::vector<std::uint32_t> apply_moves(std::size_t n,
                                       std::span<const MoveOp> ops) {
  std::vector<std::uint32_t> work(n);
  for (std::size_t i = 0; i < n; ++i) work[i] = static_cast<std::uint32_t>(i);
  for (const MoveOp& op : ops) {
    const auto it = std::find(work.begin(), work.end(),
                              static_cast<std::uint32_t>(op.index));
    CDC_CHECK_MSG(it != work.end(), "move op names an unknown element");
    const std::int64_t j = it - work.begin();
    const std::uint32_t value = *it;
    work.erase(it);
    // Range-check the delay before adding it: a crafted delay near
    // INT64_MAX would overflow j + delay.
    CDC_CHECK_MSG(op.delay >= -j &&
                      op.delay <= static_cast<std::int64_t>(work.size()) - j,
                  "move op target out of range");
    work.insert(work.begin() + j + op.delay, value);
  }
  return work;
}

std::size_t banded_edit_distance(std::span<const std::uint32_t> b) {
  // With P the identity, a match point for bᵢ is j = bᵢ: the edit script
  // deletes every element off one maximal increasing chain and re-inserts
  // it, so D = 2 × (N − LIS). The O(N + D) walk follows the main chain
  // greedily and pays O(1) per departure, implemented as a single pass
  // that extends the current increasing run and counts the elements that
  // break it against the best chain found so far.
  const std::size_t n = b.size();
  if (n == 0) return 0;
  // Greedy banded walk: maintain the set of chain tails within the band.
  // For permutations this reduces to patience sorting restricted to the
  // touched diagonals; complexity O(N + D log D) in the worst case and
  // O(N) when B is already sorted.
  std::vector<std::uint32_t> tails;
  for (const std::uint32_t v : b) {
    if (tails.empty() || v > tails.back()) {
      tails.push_back(v);
    } else {
      *std::lower_bound(tails.begin(), tails.end(), v) = v;
    }
  }
  return 2 * (n - tails.size());
}

std::size_t dp_edit_distance(std::span<const std::uint32_t> b) {
  // Insert/delete-only edit distance against the identity permutation.
  const std::size_t n = b.size();
  std::vector<std::size_t> prev(n + 1);
  std::vector<std::size_t> cur(n + 1);
  for (std::size_t j = 0; j <= n; ++j) prev[j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= n; ++j) {
      if (b[i - 1] == static_cast<std::uint32_t>(j - 1)) {
        cur[j] = prev[j - 1];
      } else {
        cur[j] = std::min(prev[j], cur[j - 1]) + 1;
      }
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

double permutation_percentage(std::span<const std::uint32_t> b) {
  if (b.empty()) return 0.0;
  const std::vector<bool> keep = lis_membership(b);
  std::size_t moved = 0;
  for (const bool k : keep)
    if (!k) ++moved;
  return static_cast<double>(moved) / static_cast<double>(b.size());
}

}  // namespace cdc::record
