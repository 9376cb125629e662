#include "record/fast_permutation.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "support/check.h"

namespace cdc::record {

namespace detail {

WorkingList::WorkingList(std::size_t n) : sizes_(std::size_t{0}), count_(n) {
  CDC_CHECK(n <= static_cast<std::size_t>(std::numeric_limits<int>::max()));
  constexpr std::size_t kFill = kBlockCapacity / 2;
  const std::size_t blocks = std::max<std::size_t>(1, (n + kFill - 1) / kFill);
  slots_.resize(blocks * kBlockCapacity);
  block_size_.resize(blocks);
  order_.resize(blocks);
  rank_.resize(blocks);
  block_of_.resize(n);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    const std::size_t first = b * kFill;
    const std::size_t size = std::min(kFill, n - std::min(n, first));
    std::iota(block(b), block(b) + size, static_cast<std::uint32_t>(first));
    std::fill_n(block_of_.begin() + static_cast<std::ptrdiff_t>(first), size,
                b);
    block_size_[b] = static_cast<std::uint32_t>(size);
    order_[b] = b;
    rank_[b] = b;
  }
  rebuild_sizes();
}

void WorkingList::rebuild_sizes() {
  std::vector<int> sizes(order_.size());
  for (std::size_t r = 0; r < order_.size(); ++r)
    sizes[r] = static_cast<int>(block_size_[order_[r]]);
  sizes_ = Fenwick(sizes);
}

std::size_t WorkingList::offset_in_block(std::uint32_t value) const {
  const std::uint32_t id = block_of_[value];
  const std::uint32_t* first = block(id);
  const std::uint32_t* const last = first + block_size_[id];
  const std::uint32_t* const it = std::find(first, last, value);
  CDC_DCHECK(it != last);
  return static_cast<std::size_t>(it - first);
}

std::size_t WorkingList::erase(std::uint32_t value) {
  const std::uint32_t id = block_of_[value];
  const std::size_t offset = offset_in_block(value);
  std::uint32_t* const data = block(id);
  std::copy(data + offset + 1, data + block_size_[id], data + offset);
  --block_size_[id];
  sizes_.add(rank_[id], -1);
  --count_;
  return static_cast<std::size_t>(sizes_.prefix(rank_[id])) + offset;
}

void WorkingList::insert_at(std::size_t position, std::uint32_t value) {
  CDC_DCHECK(position <= count_);
  // The block holding the position-th element (the first block for
  // position 0), so an insert at a block boundary appends to the earlier
  // block.
  std::size_t rank = 0;
  std::size_t offset = 0;
  if (position > 0) {
    rank = sizes_.select(static_cast<int>(position));
    offset = position - static_cast<std::size_t>(sizes_.prefix(rank));
  }
  if (block_size_[order_[rank]] == kBlockCapacity) {
    split(rank);
    if (offset > kBlockCapacity / 2) {
      ++rank;
      offset -= kBlockCapacity / 2;
    }
  }
  const std::uint32_t id = order_[rank];
  std::uint32_t* const data = block(id);
  std::copy_backward(data + offset, data + block_size_[id],
                     data + block_size_[id] + 1);
  data[offset] = value;
  ++block_size_[id];
  block_of_[value] = id;
  sizes_.add(rank, 1);
  ++count_;
}

void WorkingList::split(std::size_t rank) {
  constexpr std::size_t kHalf = kBlockCapacity / 2;
  const std::uint32_t id = order_[rank];
  const auto fresh = static_cast<std::uint32_t>(block_size_.size());
  slots_.resize(slots_.size() + kBlockCapacity);
  std::copy(block(id) + kHalf, block(id) + kBlockCapacity, block(fresh));
  for (std::size_t i = 0; i < kHalf; ++i) block_of_[block(fresh)[i]] = fresh;
  block_size_[id] = kHalf;
  block_size_.push_back(kHalf);
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(rank) + 1, fresh);
  rank_.push_back(0);
  for (std::size_t r = rank + 1; r < order_.size(); ++r)
    rank_[order_[r]] = static_cast<std::uint32_t>(r);
  rebuild_sizes();
}

std::vector<std::uint32_t> WorkingList::to_vector() const {
  std::vector<std::uint32_t> out;
  out.reserve(count_);
  for (const std::uint32_t id : order_)
    out.insert(out.end(), block(id), block(id) + block_size_[id]);
  return out;
}

Fenwick::Fenwick(std::span<const int> counts) : tree_(counts.size() + 1, 0) {
  for (std::size_t i = 1; i < tree_.size(); ++i) {
    tree_[i] += counts[i - 1];
    const std::size_t parent = i + (i & (~i + 1));
    if (parent < tree_.size()) tree_[parent] += tree_[i];
  }
}

void Fenwick::add(std::size_t index, int delta) {
  for (std::size_t i = index + 1; i < tree_.size(); i += i & (~i + 1))
    tree_[i] += delta;
}

int Fenwick::prefix(std::size_t index) const {
  int sum = 0;
  for (std::size_t i = std::min(index, tree_.size() - 1); i > 0;
       i -= i & (~i + 1))
    sum += tree_[i];
  return sum;
}

std::size_t Fenwick::select(int target) const {
  std::size_t index = 0;
  std::size_t mask = std::bit_floor(tree_.size() - 1);
  int remaining = target;
  while (mask > 0) {
    const std::size_t next = index + mask;
    if (next < tree_.size() && tree_[next] < remaining) {
      index = next;
      remaining -= tree_[next];
    }
    mask >>= 1;
  }
  return index;  // 0-based element index
}

}  // namespace detail

namespace {

/// A set of observed positions that only grows: a bitmap plus a Fenwick
/// tree over its words' popcounts. Short ranges are counted and searched
/// with popcounts on the bitmap; long ones go through the tree, so every
/// operation costs O(log(N / 64)) at worst and O(1) near a member.
class SettledSet {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};

  /// The set of positions i < keep.size() with keep[i].
  explicit SettledSet(const std::vector<bool>& keep)
      : bits_(keep.size() / 64 + 1, 0), words_(std::size_t{0}) {
    for (std::size_t i = 0; i < keep.size(); ++i)
      if (keep[i]) bits_[i / 64] |= std::uint64_t{1} << (i % 64);
    std::vector<int> counts(bits_.size());
    for (std::size_t w = 0; w < bits_.size(); ++w)
      counts[w] = std::popcount(bits_[w]);
    words_ = detail::Fenwick(counts);
  }

  [[nodiscard]] bool contains(std::size_t p) const noexcept {
    return (bits_[p / 64] >> (p % 64) & 1) != 0;
  }

  void insert(std::size_t p) {
    bits_[p / 64] |= std::uint64_t{1} << (p % 64);
    words_.add(p / 64, 1);
  }

  /// Members in [lo, hi).
  [[nodiscard]] int count(std::size_t lo, std::size_t hi) const {
    if (hi <= lo) return 0;
    if (hi / 64 - lo / 64 > kNearWords) return prefix(hi) - prefix(lo);
    std::size_t w = lo / 64;
    int sum = -std::popcount(bits_[w] & low_mask(lo % 64));
    for (; w < hi / 64; ++w) sum += std::popcount(bits_[w]);
    return sum + std::popcount(bits_[w] & low_mask(hi % 64));
  }

  /// The largest member below p, or kNone.
  [[nodiscard]] std::size_t predecessor(std::size_t p) const {
    std::size_t w = p / 64;
    std::uint64_t word = bits_[w] & low_mask(p % 64);
    for (std::size_t scanned = 0; word == 0; ++scanned) {
      if (w == 0) return kNone;
      if (scanned == kNearWords) {
        const int rank = prefix(p);
        return rank == 0 ? kNone : select(rank);
      }
      word = bits_[--w];
    }
    return w * 64 + 63 - static_cast<std::size_t>(std::countl_zero(word));
  }

 private:
  /// Ranges within this many words are popcounted directly.
  static constexpr std::size_t kNearWords = 8;

  static constexpr std::uint64_t low_mask(std::size_t bits) noexcept {
    return (std::uint64_t{1} << bits) - 1;  // bits < 64
  }

  /// Members below p.
  [[nodiscard]] int prefix(std::size_t p) const {
    return words_.prefix(p / 64) +
           std::popcount(bits_[p / 64] & low_mask(p % 64));
  }

  /// The rank-th smallest member (rank >= 1).
  [[nodiscard]] std::size_t select(int rank) const {
    const std::size_t w = words_.select(rank);
    std::uint64_t word = bits_[w];
    for (int skip = rank - words_.prefix(w) - 1; skip > 0; --skip)
      word &= word - 1;
    return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
  }

  std::vector<std::uint64_t> bits_;
  detail::Fenwick words_;
};

}  // namespace

std::vector<MoveOp> fast_encode_permutation(
    std::span<const std::uint32_t> b) {
  const std::size_t n = b.size();
  CDC_CHECK(n < std::numeric_limits<std::uint32_t>::max());
  SettledSet settled(lis_membership(b));

  // pos[x]: observed position of element x. Moved elements in increasing
  // order, each with q: the observed position of the smallest LIS element
  // above it, or n if there is none. q never decreases along `moved`.
  std::vector<std::uint32_t> pos(n);
  for (std::size_t i = 0; i < n; ++i)
    pos[b[i]] = static_cast<std::uint32_t>(i);
  struct Moved {
    std::uint32_t value;
    std::uint32_t q;
  };
  std::vector<Moved> moved;
  auto next_lis = static_cast<std::uint32_t>(n);
  for (std::size_t x = n; x-- > 0;) {
    if (settled.contains(pos[x])) {
      next_lis = pos[x];
    } else {
      moved.push_back({static_cast<std::uint32_t>(x), next_lis});
    }
  }
  if (moved.empty()) return {};
  std::reverse(moved.begin(), moved.end());
  // with_q_at_most[p]: moved elements whose q is at most p.
  std::vector<std::uint32_t> with_q_at_most(n + 1, 0);
  for (const Moved& m : moved) ++with_q_at_most[m.q];
  for (std::size_t p = 1; p <= n; ++p)
    with_q_at_most[p] += with_q_at_most[p - 1];

  // The decoder's working list is never built. Settled elements (LIS
  // members, and each moved element once its op is emitted) always stand
  // in observed order, and an element y not yet processed is preceded by
  // exactly the settled elements observed before q(y): unprocessed
  // elements keep their identity order, and every op inserts its element
  // right after its settled predecessor in B, with no q(y) in between (a
  // q is a settled position). So positions are counts.
  std::vector<MoveOp> ops(moved.size());
  for (std::size_t k = 0; k < moved.size(); ++k) {
    const std::size_t x = moved[k].value;
    const std::size_t q = moved[k].q;
    const std::size_t px = pos[x];
    // Let c and j count the settled elements observed before px and
    // before q. x stands at j (only settled elements precede it) and goes
    // right after its settled predecessor e in B, past the unprocessed
    // elements standing before e: those with q(y) <= pos(e), a run of
    // `moved` after x. So the target is c plus their number, or 0 when x
    // has no predecessor (c = 0). The delay needs only c - j, the settled
    // elements between q and px, so no count starts from position 0.
    const int c_minus_j =
        px >= q ? settled.count(q, px) : -settled.count(px, q);
    const std::size_t e = settled.predecessor(px);
    std::int64_t delay = c_minus_j;
    if (e != SettledSet::kNone) {
      const std::int64_t waiting =
          static_cast<std::int64_t>(with_q_at_most[e]) -
          static_cast<std::int64_t>(k + 1);
      delay += std::max<std::int64_t>(waiting, 0);
    }
    settled.insert(px);
    ops[k] = MoveOp{static_cast<std::int64_t>(x), delay};
  }
  return ops;
}

std::vector<std::uint32_t> fast_apply_moves(std::size_t n,
                                            std::span<const MoveOp> ops) {
  detail::WorkingList work(n);
  for (const MoveOp& op : ops) {
    CDC_CHECK_MSG(op.index >= 0 && op.index < static_cast<std::int64_t>(n),
                  "move op names an unknown element");
    const auto value = static_cast<std::uint32_t>(op.index);
    const auto j = static_cast<std::int64_t>(work.erase(value));
    // Range-check the delay before adding it: a crafted delay near
    // INT64_MAX would overflow j + delay.
    CDC_CHECK_MSG(op.delay >= -j &&
                      op.delay <= static_cast<std::int64_t>(work.size()) - j,
                  "move op target out of range");
    work.insert_at(static_cast<std::size_t>(j + op.delay), value);
  }
  return work.to_vector();
}

}  // namespace cdc::record
