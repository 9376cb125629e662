#include "record/chunk.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>

#include "record/fast_permutation.h"
#include "record/lp.h"
#include "support/bitstream.h"
#include "support/check.h"

namespace cdc::record {

std::vector<clock::MessageId> reference_order(
    std::span<const clock::MessageId> matched) {
  std::vector<clock::MessageId> reference(matched.begin(), matched.end());
  std::sort(reference.begin(), reference.end(), clock::ReferenceOrderLess{});
  return reference;
}

CdcChunk encode_chunk(const ChunkTables& tables) {
  CdcChunk chunk;
  chunk.num_matched = tables.matched.size();
  chunk.with_next = tables.with_next;
  chunk.unmatched = tables.unmatched;

  // Reference order and the observed permutation B over reference indices:
  // sort the observed indices by (clock, sender); the j-th of them has
  // reference index j. Ids are unique, so the order is total and the sort
  // needs no tie-break.
  const std::span<const clock::MessageId> matched = tables.matched;
  std::vector<std::uint32_t> by_reference(matched.size());
  std::iota(by_reference.begin(), by_reference.end(), 0u);
  std::sort(by_reference.begin(), by_reference.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              return clock::ReferenceOrderLess{}(matched[x], matched[y]);
            });
  std::vector<std::uint32_t> b(matched.size());
  chunk.ref_senders.reserve(matched.size());
  for (std::uint32_t j = 0; j < by_reference.size(); ++j) {
    const clock::MessageId& id = matched[by_reference[j]];
    CDC_CHECK_MSG(j == 0 || !(matched[by_reference[j - 1]] == id),
                  "duplicate (clock, sender) message id in chunk");
    b[by_reference[j]] = j;
    chunk.ref_senders.push_back(id.sender);
  }

  chunk.moves = fast_encode_permutation(b);

  // Epoch line: per-sender maximum clock among the chunk's receives.
  std::map<std::int32_t, std::uint64_t> epoch;
  for (const clock::MessageId& id : tables.matched) {
    auto [it, inserted] = epoch.emplace(id.sender, id.clock);
    if (!inserted && id.clock > it->second) it->second = id.clock;
  }
  for (const auto& [sender, max_clock] : epoch)
    chunk.epoch.push_back(EpochEntry{sender, max_clock});
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

void write_lp_indices(support::ByteWriter& writer,
                      std::span<const std::int64_t> indices) {
  const std::vector<std::int64_t> encoded = lp_encode(indices);
  writer.varint(encoded.size());
  for (const std::int64_t e : encoded) writer.svarint(e);
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

}  // namespace

void write_chunk(support::ByteWriter& writer, const CdcChunk& chunk) {
  writer.varint(chunk.num_matched);

  // Permutation-difference table: LP-encoded indices, zigzag delays.
  std::vector<std::int64_t> move_indices;
  move_indices.reserve(chunk.moves.size());
  for (const MoveOp& op : chunk.moves) move_indices.push_back(op.index);
  write_lp_indices(writer, move_indices);
  for (const MoveOp& op : chunk.moves) writer.svarint(op.delay);

  // with_next table: LP-encoded indices when sparse, a bitmap over the
  // matched events when dense (Testsome-heavy streams mark most events).
  {
    support::ByteWriter sparse;
    std::vector<std::int64_t> wn(chunk.with_next.begin(),
                                 chunk.with_next.end());
    write_lp_indices(sparse, wn);
    const std::size_t bitmap_bytes =
        (static_cast<std::size_t>(chunk.num_matched) + 7) / 8;
    if (bitmap_bytes < sparse.size()) {
      writer.u8(1);  // bitmap mode
      support::BitWriter bitmap;
      std::size_t next = 0;
      for (std::uint64_t i = 0; i < chunk.num_matched; ++i) {
        const bool set =
            next < chunk.with_next.size() && chunk.with_next[next] == i;
        if (set) ++next;
        bitmap.write(set ? 1u : 0u, 1);
      }
      writer.bytes(std::move(bitmap).finish());
    } else {
      writer.u8(0);  // sparse mode
      writer.bytes(sparse.view());
    }
  }

  // unmatched-test table.
  std::vector<std::int64_t> um;
  um.reserve(chunk.unmatched.size());
  for (const UnmatchedRun& run : chunk.unmatched)
    um.push_back(static_cast<std::int64_t>(run.index));
  write_lp_indices(writer, um);
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

  // Reference-order sender column, bit-packed against the epoch-table
  // alphabet: ceil(log2(#senders)) bits per entry; zero bits when the
  // chunk has a single sender.
  {
    std::map<std::int32_t, std::uint32_t> alphabet;
    for (const EpochEntry& entry : chunk.epoch)
      alphabet.emplace(entry.sender,
                       static_cast<std::uint32_t>(alphabet.size()));
    int bits = 0;
    while ((std::size_t{1} << bits) < alphabet.size()) ++bits;
    support::BitWriter packed;
    for (const std::int32_t s : chunk.ref_senders)
      packed.write(alphabet.at(s), bits);
    const std::vector<std::uint8_t> bytes = std::move(packed).finish();
    writer.bytes(bytes);
  }
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
      if (index >= chunk.epoch.size()) {
        if (chunk.epoch.empty()) return std::nullopt;
        return std::nullopt;
      }
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
