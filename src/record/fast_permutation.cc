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

std::size_t WorkingList::position_of(std::uint32_t value) const {
  return static_cast<std::size_t>(sizes_.prefix(rank_[block_of_[value]])) +
         offset_in_block(value);
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

std::vector<MoveOp> fast_encode_permutation(
    std::span<const std::uint32_t> b) {
  const std::size_t n = b.size();
  const std::vector<bool> keep = lis_membership(b);

  std::vector<std::uint32_t> moved;
  for (std::size_t i = 0; i < n; ++i)
    if (!keep[i]) moved.push_back(b[i]);
  std::sort(moved.begin(), moved.end());
  if (moved.empty()) return {};

  std::vector<std::size_t> pos_in_b(n);
  for (std::size_t i = 0; i < n; ++i) pos_in_b[b[i]] = i;

  // settled_by_obs marks the observed positions of settled elements; b
  // recovers the element at an observed position.
  std::vector<int> settled(n);
  for (std::size_t i = 0; i < n; ++i) settled[i] = keep[i] ? 1 : 0;
  detail::Fenwick settled_by_obs(settled);

  // list_rank_of_settled: working-list positions, restricted to settled
  // elements, keyed by observed position. The c-th settled element of the
  // working list is the settled element with the c-th smallest observed
  // position (settled elements always appear in B order).
  detail::WorkingList work(n);

  std::vector<MoveOp> ops;
  ops.reserve(moved.size());
  for (const std::uint32_t x : moved) {
    const std::size_t j = work.erase(x);
    // c = number of settled elements before x in the observed order.
    const int c = settled_by_obs.prefix(pos_in_b[x]);
    std::size_t t = 0;
    if (c > 0) {
      // Observed position of the c-th settled element, then its current
      // working-list position; insert right after it.
      const std::size_t obs = settled_by_obs.select(c);
      t = work.position_of(b[obs]) + 1;
    }
    work.insert_at(t, x);
    settled_by_obs.add(pos_in_b[x], 1);
    ops.push_back(MoveOp{static_cast<std::int64_t>(x),
                         static_cast<std::int64_t>(t) -
                             static_cast<std::int64_t>(j)});
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
