#include "record/chunk.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "record/fast_permutation.h"
#include "record/lp.h"
#include "record/sender_slots.h"
#include "support/bitstream.h"
#include "support/check.h"

namespace cdc::record {

std::vector<clock::MessageId> reference_order(
    std::span<const clock::MessageId> matched) {
  std::vector<clock::MessageId> reference(matched.begin(), matched.end());
  std::sort(reference.begin(), reference.end(), clock::ReferenceOrderLess{});
  return reference;
}

namespace {

/// Sorts `words` ascending by bits [shift, shift + bits) with LSD radix
/// passes of at most 11 bits.
void radix_sort_bits(std::vector<std::uint64_t>& words, int shift,
                     int bits) {
  constexpr int kMaxDigit = 11;
  const int passes = (bits + kMaxDigit - 1) / kMaxDigit;
  if (passes == 0) return;
  const int digit = (bits + passes - 1) / passes;
  const std::uint64_t mask = (std::uint64_t{1} << digit) - 1;
  std::vector<std::uint32_t> count(std::size_t{1} << digit);
  std::vector<std::uint64_t> scratch(words.size());
  for (int p = 0; p < passes; ++p, shift += digit) {
    std::fill(count.begin(), count.end(), 0u);
    for (const std::uint64_t w : words) ++count[(w >> shift) & mask];
    std::uint32_t sum = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t here = c;
      c = sum;
      sum += here;
    }
    for (const std::uint64_t w : words)
      scratch[count[(w >> shift) & mask]++] = w;
    words.swap(scratch);
  }
}

}  // namespace

CdcChunk encode_chunk(const ChunkTables& tables) {
  CdcChunk chunk;
  chunk.num_matched = tables.matched.size();
  chunk.with_next = tables.with_next;
  chunk.unmatched = tables.unmatched;
  const std::span<const clock::MessageId> matched = tables.matched;
  const std::size_t n = matched.size();
  if (n == 0) return chunk;
  CDC_CHECK(n < std::numeric_limits<std::uint32_t>::max());

  // Sender slots: the epoch line's alphabet, in sender order.
  detail::SenderSlots senders;
  detail::assign_sender_slots(
      n, [&](std::size_t i) { return matched[i].sender; }, senders);
  const std::size_t num_senders = senders.distinct.size();

  // Epoch line: per-sender maximum clock among the chunk's receives.
  std::uint64_t min_clock = matched[0].clock;
  std::vector<std::uint64_t> max_clock(num_senders, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t c = matched[i].clock;
    min_clock = std::min(min_clock, c);
    std::uint64_t& top = max_clock[senders.slot[i]];
    top = std::max(top, c);
  }
  chunk.epoch.resize(num_senders);
  std::uint64_t clock_span = 0;
  for (std::size_t k = 0; k < num_senders; ++k) {
    chunk.epoch[k] = EpochEntry{senders.distinct[k], max_clock[k]};
    clock_span = std::max(clock_span, max_clock[k] - min_clock);
  }

  // Reference order (clock, sender): one word per receive holding the key
  // (clock - min) * #senders + slot above its observed index, radix-sorted
  // on the key bits. Slots ascend with senders, so key order is
  // Definition 6's order, and equal keys are equal ids. A clock span too
  // wide for the word falls back to a comparison sort.
  const int index_bits = std::bit_width(n - 1);
  const std::uint64_t index_mask = (std::uint64_t{1} << index_bits) - 1;
  const std::uint64_t key_limit =
      index_bits == 0 ? std::numeric_limits<std::uint64_t>::max()
                      : std::uint64_t{1} << (64 - index_bits);
  std::vector<std::uint64_t> by_reference(n);
  if (clock_span < key_limit / num_senders) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key =
          (matched[i].clock - min_clock) * num_senders + senders.slot[i];
      by_reference[i] = key << index_bits | i;
    }
    const int key_bits =
        std::bit_width(clock_span * num_senders + num_senders - 1);
    radix_sort_bits(by_reference, index_bits, key_bits);
    for (std::size_t j = 1; j < n; ++j)
      CDC_CHECK_MSG((by_reference[j] >> index_bits) !=
                        (by_reference[j - 1] >> index_bits),
                    "duplicate (clock, sender) message id in chunk");
    for (std::uint64_t& w : by_reference) w &= index_mask;
  } else {
    std::iota(by_reference.begin(), by_reference.end(), std::uint64_t{0});
    std::sort(by_reference.begin(), by_reference.end(),
              [&](std::uint64_t x, std::uint64_t y) {
                return clock::ReferenceOrderLess{}(matched[x], matched[y]);
              });
    for (std::size_t j = 1; j < n; ++j)
      CDC_CHECK_MSG(!(matched[by_reference[j - 1]] == matched[by_reference[j]]),
                    "duplicate (clock, sender) message id in chunk");
  }

  // The observed permutation B over reference indices: the j-th receive in
  // reference order has reference index j.
  std::vector<std::uint32_t> b(n);
  chunk.ref_senders.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t i = by_reference[j];
    b[i] = static_cast<std::uint32_t>(j);
    chunk.ref_senders[j] = matched[i].sender;
  }
  chunk.moves = fast_encode_permutation(b);
  return chunk;
}

std::vector<std::uint32_t> observed_reference_indices(const CdcChunk& chunk) {
  return fast_apply_moves(static_cast<std::size_t>(chunk.num_matched),
                          chunk.moves);
}

ChunkTables decode_chunk(const CdcChunk& chunk,
                         std::span<const clock::MessageId> reference) {
  CDC_CHECK(reference.size() == chunk.num_matched);
  for (std::size_t j = 0; j < reference.size(); ++j)
    CDC_CHECK_MSG(reference[j].sender == chunk.ref_senders[j],
                  "reference order disagrees with the recorded senders");
  ChunkTables tables;
  const std::vector<std::uint32_t> b = observed_reference_indices(chunk);
  tables.matched.reserve(reference.size());
  for (const std::uint32_t j : b) tables.matched.push_back(reference[j]);
  tables.with_next = chunk.with_next;
  tables.unmatched = chunk.unmatched;
  return tables;
}

// --- Serialization --------------------------------------------------------

namespace {

/// An LP-encoded index column: the count, then each residual as a zigzag
/// varint.
template <typename At>
void write_lp_column(support::ByteWriter& writer, std::size_t count,
                     At&& at) {
  writer.varint(count);
  for_each_lp_residual(count, at,
                       [&](std::int64_t e) { writer.svarint(e); });
}

[[nodiscard]] bool read_lp_indices(support::ByteReader& reader,
                                   std::vector<std::int64_t>& out) {
  std::uint64_t n = 0;
  if (!reader.try_varint(n) || n > reader.remaining() + 1) return false;
  std::vector<std::int64_t> encoded(static_cast<std::size_t>(n));
  for (auto& e : encoded)
    if (!reader.try_svarint(e)) return false;
  out = lp_decode(encoded);
  return true;
}

/// The with_next table as a bitmap over the matched events, written a byte
/// at a time. Like a bit-by-bit walk that advances through the table on
/// each match, it marks the table's strictly increasing prefix below N
/// (all of it, in any chunk build_tables produced).
void write_with_next_bitmap(support::ByteWriter& writer,
                            const CdcChunk& chunk) {
  std::vector<std::uint8_t> bitmap(
      (static_cast<std::size_t>(chunk.num_matched) + 7) / 8, 0);
  for (std::size_t k = 0; k < chunk.with_next.size(); ++k) {
    const std::uint64_t i = chunk.with_next[k];
    if (i >= chunk.num_matched || (k > 0 && i <= chunk.with_next[k - 1]))
      break;
    bitmap[static_cast<std::size_t>(i >> 3)] |=
        static_cast<std::uint8_t>(1u << (i & 7));
  }
  writer.bytes(bitmap);
}

/// The reference-order sender column, bit-packed LSB first against the
/// epoch-line alphabet: a sender's code is its index among the line's
/// distinct senders in line order (its index on the line, which
/// encode_chunk and read_chunk keep strictly increasing; crafted lines
/// that repeat a sender still serialize), ceil(log2(#codes)) bits each,
/// zero bits when there is one sender. Every entry must be on the line.
void write_sender_column(support::ByteWriter& writer, const CdcChunk& chunk) {
  const std::span<const EpochEntry> line = chunk.epoch;
  const std::span<const std::int32_t> column = chunk.ref_senders;
  // One slot per distinct sender over the line followed by the column;
  // a slot's code is the order of its first appearance on the line.
  detail::SenderSlots slots;
  detail::assign_sender_slots(
      line.size() + column.size(),
      [&](std::size_t i) {
        return i < line.size() ? line[i].sender : column[i - line.size()];
      },
      slots);
  constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
  std::vector<std::uint32_t> code_of_slot(slots.distinct.size(), kAbsent);
  std::uint32_t codes = 0;
  for (std::size_t k = 0; k < line.size(); ++k) {
    std::uint32_t& code = code_of_slot[slots.slot[k]];
    if (code == kAbsent) code = codes++;
  }
  // Codes are packed 32 bits at a time; with one code, bits is 0 and
  // nothing is written, but every entry is still looked up.
  const int bits = std::bit_width(codes > 0 ? codes - 1 : 0u);
  std::vector<std::uint8_t> packed(
      (column.size() * static_cast<std::size_t>(bits) + 7) / 8);
  std::size_t out = 0;
  std::uint64_t acc = 0;
  int used = 0;
  for (std::size_t j = 0; j < column.size(); ++j) {
    const std::uint32_t code = code_of_slot[slots.slot[line.size() + j]];
    CDC_CHECK_MSG(code != kAbsent,
                  "sender column names a sender missing from the epoch line");
    acc |= std::uint64_t{code} << used;
    used += bits;
    if (used >= 32) {
      for (int b = 0; b < 4; ++b)
        packed[out++] = static_cast<std::uint8_t>(acc >> (8 * b));
      acc >>= 32;
      used -= 32;
    }
  }
  for (; used > 0; used -= 8, acc >>= 8)
    packed[out++] = static_cast<std::uint8_t>(acc);
  writer.bytes(packed);
}

}  // namespace

void write_chunk(support::ByteWriter& writer, const CdcChunk& chunk) {
  writer.varint(chunk.num_matched);

  // Permutation-difference table: LP-encoded indices, zigzag delays.
  write_lp_column(writer, chunk.moves.size(),
                  [&](std::size_t i) { return chunk.moves[i].index; });
  for (const MoveOp& op : chunk.moves) writer.svarint(op.delay);

  // with_next table: LP-encoded indices when sparse, a bitmap over the
  // matched events when dense (Testsome-heavy streams mark most events).
  // The sparse form's size is summed without writing it, and only up to
  // the point where the bitmap is known to be smaller.
  {
    const auto wn = [&](std::size_t i) { return chunk.with_next[i]; };
    const std::size_t bitmap_bytes =
        (static_cast<std::size_t>(chunk.num_matched) + 7) / 8;
    std::size_t sparse_bytes = support::varint_size(chunk.with_next.size());
    for_each_lp_residual(chunk.with_next.size(), wn, [&](std::int64_t e) {
      if (sparse_bytes <= bitmap_bytes)
        sparse_bytes += support::varint_size(support::zigzag_encode(e));
    });
    if (bitmap_bytes < sparse_bytes) {
      writer.u8(1);  // bitmap mode
      write_with_next_bitmap(writer, chunk);
    } else {
      writer.u8(0);  // sparse mode
      write_lp_column(writer, chunk.with_next.size(), wn);
    }
  }

  // unmatched-test table.
  write_lp_column(writer, chunk.unmatched.size(),
                  [&](std::size_t i) { return chunk.unmatched[i].index; });
  for (const UnmatchedRun& run : chunk.unmatched) writer.varint(run.count);

  // Epoch line: senders are sorted, so delta-encode; clocks verbatim.
  // Written before the sender column, whose alphabet it defines.
  writer.varint(chunk.epoch.size());
  std::int64_t prev_sender = 0;
  for (const EpochEntry& entry : chunk.epoch) {
    writer.svarint(entry.sender - prev_sender);
    prev_sender = entry.sender;
    writer.varint(entry.clock);
  }

  write_sender_column(writer, chunk);
}

std::optional<CdcChunk> read_chunk(support::ByteReader& reader) {
  CdcChunk chunk;
  if (!reader.try_varint(chunk.num_matched)) return std::nullopt;

  std::vector<std::int64_t> move_indices;
  if (!read_lp_indices(reader, move_indices)) return std::nullopt;
  chunk.moves.resize(move_indices.size());
  for (std::size_t i = 0; i < move_indices.size(); ++i) {
    chunk.moves[i].index = move_indices[i];
    if (!reader.try_svarint(chunk.moves[i].delay)) return std::nullopt;
  }

  std::uint8_t wn_mode = 0;
  if (!reader.try_u8(wn_mode)) return std::nullopt;
  if (wn_mode == 1) {
    if (chunk.num_matched > (std::uint64_t{1} << 28)) return std::nullopt;
    const std::size_t bitmap_bytes =
        (static_cast<std::size_t>(chunk.num_matched) + 7) / 8;
    std::span<const std::uint8_t> body;
    if (!reader.try_bytes(bitmap_bytes, body)) return std::nullopt;
    support::BitReader bitmap(body);
    for (std::uint64_t i = 0; i < chunk.num_matched; ++i) {
      std::uint32_t bit = 0;
      if (!bitmap.try_read_bit(bit)) return std::nullopt;
      if (bit != 0) chunk.with_next.push_back(i);
    }
  } else if (wn_mode == 0) {
    std::vector<std::int64_t> wn;
    if (!read_lp_indices(reader, wn)) return std::nullopt;
    chunk.with_next.assign(wn.begin(), wn.end());
  } else {
    return std::nullopt;
  }

  // build_tables emits with_next indices strictly increasing and below N.
  for (std::size_t i = 0; i < chunk.with_next.size(); ++i) {
    if (chunk.with_next[i] >= chunk.num_matched) return std::nullopt;
    if (i > 0 && chunk.with_next[i] <= chunk.with_next[i - 1])
      return std::nullopt;
  }

  // ...and unmatched runs of at least one test at strictly increasing
  // indices <= N (N: trailing tests). A zero-count run would make replay
  // answer "no match" forever.
  std::vector<std::int64_t> um;
  if (!read_lp_indices(reader, um)) return std::nullopt;
  chunk.unmatched.resize(um.size());
  for (std::size_t i = 0; i < um.size(); ++i) {
    UnmatchedRun& run = chunk.unmatched[i];
    run.index = static_cast<std::uint64_t>(um[i]);
    if (um[i] < 0 || run.index > chunk.num_matched) return std::nullopt;
    if (i > 0 && run.index <= chunk.unmatched[i - 1].index)
      return std::nullopt;
    if (!reader.try_varint(run.count) || run.count == 0) return std::nullopt;
  }

  if (chunk.num_matched > (std::uint64_t{1} << 28)) return std::nullopt;

  std::uint64_t num_epoch = 0;
  if (!reader.try_varint(num_epoch) || num_epoch > reader.remaining() + 1)
    return std::nullopt;
  chunk.epoch.resize(static_cast<std::size_t>(num_epoch));
  // Senders are int32 ranks in strictly increasing order: replay finds a
  // sender's slot on the line by binary search.
  constexpr std::int64_t kMinSender = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMaxSender = std::numeric_limits<std::int32_t>::max();
  std::int64_t prev_sender = 0;
  for (std::size_t i = 0; i < chunk.epoch.size(); ++i) {
    EpochEntry& entry = chunk.epoch[i];
    std::int64_t delta = 0;
    if (!reader.try_svarint(delta)) return std::nullopt;
    if ((i > 0 && delta <= 0) || delta > kMaxSender - prev_sender ||
        delta < kMinSender - prev_sender)
      return std::nullopt;
    prev_sender += delta;
    entry.sender = static_cast<std::int32_t>(prev_sender);
    if (!reader.try_varint(entry.clock)) return std::nullopt;
  }

  // Bit-packed sender column over the epoch alphabet.
  {
    int bits = 0;
    while ((std::size_t{1} << bits) < chunk.epoch.size()) ++bits;
    const std::size_t packed_bytes =
        (static_cast<std::size_t>(chunk.num_matched) *
             static_cast<std::size_t>(bits) + 7) / 8;
    std::span<const std::uint8_t> body;
    if (!reader.try_bytes(packed_bytes, body)) return std::nullopt;
    support::BitReader packed(body);
    chunk.ref_senders.resize(static_cast<std::size_t>(chunk.num_matched));
    for (auto& s : chunk.ref_senders) {
      std::uint32_t index = 0;
      if (bits > 0 && !packed.try_read(bits, index)) return std::nullopt;
      if (index >= chunk.epoch.size()) return std::nullopt;
      s = chunk.epoch[index].sender;
    }
  }
  return chunk;
}

void write_tables_re(support::ByteWriter& writer, const ChunkTables& tables) {
  writer.varint(tables.matched.size());
  for (const clock::MessageId& id : tables.matched) {
    writer.varint(static_cast<std::uint64_t>(id.sender));
    writer.varint(id.clock);
  }
  std::vector<std::int64_t> wn(tables.with_next.begin(),
                               tables.with_next.end());
  writer.varint(wn.size());
  for (const std::int64_t i : wn) writer.varint(static_cast<std::uint64_t>(i));
  writer.varint(tables.unmatched.size());
  for (const UnmatchedRun& run : tables.unmatched) {
    writer.varint(run.index);
    writer.varint(run.count);
  }
}

std::optional<ChunkTables> read_tables_re(support::ByteReader& reader) {
  ChunkTables tables;
  std::uint64_t n = 0;
  if (!reader.try_varint(n) || n > reader.remaining() + 1)
    return std::nullopt;
  tables.matched.resize(static_cast<std::size_t>(n));
  for (auto& id : tables.matched) {
    std::uint64_t sender = 0;
    if (!reader.try_varint(sender) || !reader.try_varint(id.clock))
      return std::nullopt;
    id.sender = static_cast<std::int32_t>(sender);
  }
  std::uint64_t wn = 0;
  if (!reader.try_varint(wn) || wn > reader.remaining() + 1)
    return std::nullopt;
  tables.with_next.resize(static_cast<std::size_t>(wn));
  for (auto& i : tables.with_next)
    if (!reader.try_varint(i)) return std::nullopt;
  std::uint64_t um = 0;
  if (!reader.try_varint(um) || um > reader.remaining() + 1)
    return std::nullopt;
  tables.unmatched.resize(static_cast<std::size_t>(um));
  for (auto& run : tables.unmatched)
    if (!reader.try_varint(run.index) || !reader.try_varint(run.count))
      return std::nullopt;
  return tables;
}

}  // namespace cdc::record
