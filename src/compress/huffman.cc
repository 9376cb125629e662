#include "compress/huffman.h"

#include <algorithm>
#include <cstddef>

#include "support/check.h"

namespace cdc::compress {

namespace {

// A leaf of package-merge: one active symbol and its weight.
struct Leaf {
  std::uint64_t weight = 0;
  std::uint16_t symbol = 0;
};

bool weight_less(const Leaf& a, const Leaf& b) noexcept {
  return a.weight < b.weight;
}

/// Per-thread package-merge scratch, recycled across calls so steady-state
/// length construction does not allocate. Holds capacity only.
struct MergeScratch {
  std::vector<Leaf> leaves;
  std::vector<std::uint64_t> leaf_weights;  ///< sorted, as in `leaves`
  std::vector<std::uint64_t> weights;       ///< one level's item weights
  std::vector<std::uint64_t> next_weights;
  std::vector<std::uint8_t> is_leaf;        ///< `limit` rows of 2n-1 flags
};

MergeScratch& merge_scratch() {
  thread_local MergeScratch scratch;
  return scratch;
}

}  // namespace

void package_merge_lengths_into(std::span<const std::uint64_t> freqs,
                                int limit, std::span<std::uint8_t> lengths) {
  CDC_CHECK(limit >= 1 && limit <= 32);
  CDC_CHECK(lengths.size() == freqs.size());
  std::fill(lengths.begin(), lengths.end(), std::uint8_t{0});

  MergeScratch& scratch = merge_scratch();
  std::vector<Leaf>& leaves = scratch.leaves;
  leaves.clear();
  for (std::size_t s = 0; s < freqs.size(); ++s)
    if (freqs[s] > 0)
      leaves.push_back(Leaf{freqs[s], static_cast<std::uint16_t>(s)});

  const std::size_t n = leaves.size();
  if (n == 0) return;
  if (n == 1) {
    lengths[leaves[0].symbol] = 1;
    return;
  }
  CDC_CHECK_MSG(n <= (std::size_t{1} << limit),
                "alphabet too large for length limit");
  // std::sort is not stable, and which of several equal-weight symbols gets
  // the longer code depends on its tie order. That order depends only on
  // the outcomes of these weight comparisons, so it does not change with
  // what a leaf carries besides its weight: the lengths equal those of the
  // package-list formulation, which the tests hold this one to.
  std::sort(leaves.begin(), leaves.end(), weight_less);

  // Every level lists at most n leaves plus (2n-1)/2 packages. Row
  // `level - 1` of is_leaf flags which of that level's items are leaves.
  const std::size_t width = 2 * n - 1;
  std::vector<std::uint64_t>& leaf_weights = scratch.leaf_weights;
  std::vector<std::uint64_t>& cur = scratch.weights;
  std::vector<std::uint64_t>& next = scratch.next_weights;
  std::vector<std::uint8_t>& is_leaf = scratch.is_leaf;
  leaf_weights.resize(n);
  cur.resize(width);
  next.resize(width);
  is_leaf.resize(static_cast<std::size_t>(limit) * width);
  const auto row = [&](int level) {
    return is_leaf.data() + static_cast<std::size_t>(level - 1) * width;
  };
  std::size_t level_size[33] = {};

  // Level `limit` holds the bare leaves; moving toward level 1 we package
  // adjacent pairs and merge the leaves back in. On equal weights the leaf
  // comes first, as std::merge takes from its first range. Each level is
  // the same function of the one before it, so once two adjacent levels
  // agree, every level after them is identical too: `stable` is the last
  // level built, and it stands in for all levels from 1 to it.
  for (std::size_t i = 0; i < n; ++i) {
    leaf_weights[i] = leaves[i].weight;
    cur[i] = leaves[i].weight;
    row(limit)[i] = 1;
  }
  level_size[limit] = n;
  int stable = limit;
  while (stable > 1) {
    const int level = stable - 1;
    std::uint8_t* const flags = row(level);
    const std::size_t packages = level_size[stable] / 2;
    std::size_t leaf = 0;
    std::size_t package = 0;
    std::size_t out = 0;
    while (leaf < n && package < packages) {
      const std::uint64_t package_weight =
          cur[2 * package] + cur[2 * package + 1];
      const bool take_package = package_weight < leaf_weights[leaf];
      next[out] = take_package ? package_weight : leaf_weights[leaf];
      flags[out++] = take_package ? 0 : 1;
      package += take_package ? 1 : 0;
      leaf += take_package ? 0 : 1;
    }
    for (; leaf < n; ++leaf, ++out) {
      next[out] = leaf_weights[leaf];
      flags[out] = 1;
    }
    for (; package < packages; ++package, ++out) {
      next[out] = cur[2 * package] + cur[2 * package + 1];
      flags[out] = 0;
    }
    level_size[level] = out;
    const bool converged =
        out == level_size[stable] &&
        std::equal(next.begin(),
                   next.begin() + static_cast<std::ptrdiff_t>(out),
                   cur.begin());
    std::swap(cur, next);
    stable = level;
    if (converged) break;
  }

  // Boundary counting. The first 2(n-1) items of level 1 are chosen. A
  // chosen package stands for two items of the level below it, and each
  // level's packages pair up its predecessor's items in order, so the
  // chosen items of level L+1 are its first 2 x (packages chosen at L).
  // Leaves keep their sorted order in every level, so a level's chosen
  // leaves are a prefix of `leaves`; each adds one to its code length.
  std::size_t take = 2 * (n - 1);
  for (int level = 1; level <= limit && take > 0; ++level) {
    const int built = std::max(level, stable);
    CDC_CHECK(take <= level_size[built]);
    const std::uint8_t* flags = row(built);
    std::size_t chosen_leaves = 0;
    for (std::size_t i = 0; i < take; ++i) chosen_leaves += flags[i];
    for (std::size_t i = 0; i < chosen_leaves; ++i)
      ++lengths[leaves[i].symbol];
    take = 2 * (take - chosen_leaves);
  }

  for (const Leaf& leaf : leaves)
    CDC_CHECK(lengths[leaf.symbol] >= 1 &&
              lengths[leaf.symbol] <= static_cast<std::uint8_t>(limit));
}

std::vector<std::uint8_t> package_merge_lengths(
    std::span<const std::uint64_t> freqs, int limit) {
  std::vector<std::uint8_t> lengths(freqs.size(), 0);
  package_merge_lengths_into(freqs, limit, lengths);
  return lengths;
}

std::vector<std::uint32_t> canonical_codes(
    std::span<const std::uint8_t> lengths) {
  constexpr int kMaxBits = 32;
  std::uint32_t bl_count[kMaxBits + 1] = {};
  int max_len = 0;
  for (const std::uint8_t len : lengths) {
    CDC_CHECK(len <= kMaxBits);
    if (len > 0) {
      ++bl_count[len];
      max_len = std::max<int>(max_len, len);
    }
  }
  std::uint32_t next_code[kMaxBits + 1] = {};
  std::uint32_t code = 0;
  for (int bits = 1; bits <= max_len; ++bits) {
    code = (code + bl_count[bits - 1]) << 1;
    next_code[bits] = code;
  }
  std::vector<std::uint32_t> codes(lengths.size(), 0);
  for (std::size_t s = 0; s < lengths.size(); ++s)
    if (lengths[s] > 0) codes[s] = next_code[lengths[s]]++;
  return codes;
}

bool HuffmanDecoder::init(std::span<const std::uint8_t> lengths) {
  ok_ = false;
  reset();
  std::fill(std::begin(first_code_), std::end(first_code_), 0u);
  std::fill(std::begin(count_), std::end(count_), 0u);
  std::fill(std::begin(offset_), std::end(offset_), 0u);
  symbols_.clear();

  std::size_t coded = 0;
  for (const std::uint8_t len : lengths) {
    if (len == 0) continue;
    if (len > kMaxBits) return false;
    ++count_[len];
    ++coded;
  }
  if (coded == 0) return false;

  // Kraft sum check: reject oversubscribed sets; allow the degenerate
  // single-code case (DEFLATE permits a one-symbol distance alphabet).
  std::uint64_t kraft = 0;
  for (int len = 1; len <= kMaxBits; ++len)
    kraft += static_cast<std::uint64_t>(count_[len])
             << (kMaxBits - len);
  const std::uint64_t full = std::uint64_t{1} << kMaxBits;
  if (kraft > full) return false;
  if (kraft < full && coded > 1) return false;

  std::uint32_t code = 0;
  std::uint32_t offset = 0;
  for (int len = 1; len <= kMaxBits; ++len) {
    code = (code + count_[len - 1]) << 1;
    first_code_[len] = code;
    offset_[len] = offset;
    offset += count_[len];
  }

  symbols_.resize(coded);
  std::uint32_t fill[kMaxBits + 1] = {};
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const std::uint8_t len = lengths[s];
    if (len == 0) continue;
    symbols_[offset_[len] + fill[len]] = static_cast<std::uint16_t>(s);
    ++fill[len];
  }
  build_fast_table();
  ok_ = true;
  return true;
}

void HuffmanDecoder::build_fast_table() noexcept {
  fast_.fill(0);
  for (int len = 1; len <= kFastBits; ++len) {
    for (std::uint32_t j = 0; j < count_[len]; ++j) {
      // DEFLATE streams codes MSB-first but the bit reader yields bits
      // LSB-first, so the table is indexed by the reversed code,
      // replicated over every value of the don't-care high bits.
      const std::uint32_t code = first_code_[len] + j;
      std::uint32_t rev = 0;
      for (int b = 0; b < len; ++b)
        rev |= ((code >> b) & 1u) << (len - 1 - b);
      const std::uint16_t sym = symbols_[offset_[len] + j];
      const auto entry = static_cast<std::uint16_t>(
          (static_cast<std::uint32_t>(sym) << 4) | static_cast<std::uint32_t>(len));
      for (std::size_t i = rev; i < kFastSize; i += std::size_t{1} << len)
        fast_[i] = entry;
    }
  }
}

}  // namespace cdc::compress
