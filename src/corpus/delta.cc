#include "corpus/delta.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "corpus/rolling.h"
#include "support/binary.h"

namespace cdc::corpus {

namespace {

constexpr std::uint8_t kDeltaMagic = 'D';
constexpr std::uint8_t kDeltaVersion = 1;
/// Header byte naming the encoder: always 2 (correcting), and the reader
/// refuses any other value. It stays so stored deltas keep their format.
constexpr std::uint8_t kDeltaAlgorithm = 2;
constexpr std::uint8_t kOpEnd = 0x00;
constexpr std::uint8_t kOpAdd = 0x01;
constexpr std::uint8_t kOpCopy = 0x02;

/// Footprint (seed) width in bytes: the granularity of match detection.
constexpr std::size_t kFootprint = 16;
/// Hash-table size floor; the table grows with the input from here.
constexpr std::size_t kTableFloor = std::size_t{1} << 12;
/// Matches shorter than this stay literals: a COPY costs ~5-10 bytes of
/// opcodes, so copying fewer bytes than that loses.
constexpr std::size_t kMinMatch = 12;

/// Power-of-two table size: at least the floor, grows with the input so
/// load factor stays sane, capped so a pathological input cannot ask for
/// gigabytes of table.
std::size_t table_slots(std::size_t input) {
  const std::size_t want =
      std::bit_ceil(std::max<std::size_t>(input / 4, std::size_t{1}));
  return std::clamp<std::size_t>(want, kTableFloor, std::size_t{1} << 20);
}

/// Rolling footprint hasher: O(1) when queried at consecutive offsets,
/// recomputes after a jump (a match skips the version pointer forward).
class FootprintScanner {
 public:
  explicit FootprintScanner(std::span<const std::uint8_t> data)
      : data_(data), window_(kFootprint) {}

  /// Hash of data[pos, pos + kFootprint). Requires it to be in range.
  std::uint64_t at(std::size_t pos) {
    if (valid_ && pos == pos_) return window_.hash();
    if (valid_ && pos == pos_ + 1) {
      window_.roll(data_[pos - 1], data_[pos + kFootprint - 1]);
    } else {
      window_.reset();
      for (std::size_t i = 0; i < kFootprint; ++i)
        window_.push(data_[pos + i]);
    }
    pos_ = pos;
    valid_ = true;
    return window_.hash();
  }

 private:
  std::span<const std::uint8_t> data_;
  KarpRabinWindow window_;
  std::size_t pos_ = 0;
  bool valid_ = false;
};

std::size_t match_forward(std::span<const std::uint8_t> ref,
                          std::span<const std::uint8_t> ver, std::size_t ro,
                          std::size_t vo) {
  const std::size_t limit = std::min(ref.size() - ro, ver.size() - vo);
  std::size_t len = 0;
  while (len < limit && ref[ro + len] == ver[vo + len]) ++len;
  return len;
}

void flush_literal(std::vector<DeltaCommand>& cmds,
                   std::span<const std::uint8_t> ver, std::size_t begin,
                   std::size_t end) {
  if (end <= begin) return;
  DeltaCommand cmd;
  cmd.kind = DeltaCommand::Kind::kAdd;
  cmd.write_off = begin;
  cmd.length = end - begin;
  cmd.bytes.assign(ver.begin() + static_cast<std::ptrdiff_t>(begin),
                   ver.begin() + static_cast<std::ptrdiff_t>(end));
  cmds.push_back(std::move(cmd));
}

DeltaCommand make_copy(std::size_t write_off, std::size_t read_off,
                       std::size_t len) {
  DeltaCommand cmd;
  cmd.kind = DeltaCommand::Kind::kCopy;
  cmd.write_off = write_off;
  cmd.read_off = read_off;
  cmd.length = len;
  return cmd;
}

/// JACM'02 §8: the whole reference is checkpointed up front (strided so
/// the table holds it), and every match extends backward as well as
/// forward, retracting pending literal bytes the greedy forward scan had
/// already given up on. Emits commands in version order.
std::vector<DeltaCommand> encode_correcting(std::span<const std::uint8_t> ref,
                                            std::span<const std::uint8_t> ver,
                                            DeltaStats* stats) {
  std::vector<DeltaCommand> cmds;
  constexpr std::size_t s = kFootprint;
  const std::size_t slots = table_slots(std::max(ref.size(), ver.size()));
  const std::uint64_t mask = slots - 1;
  std::vector<std::int64_t> table(slots, -1);
  FootprintScanner ref_scan(ref);
  FootprintScanner ver_scan(ver);

  const std::size_t footprints = ref.size() >= s ? ref.size() - s + 1 : 0;
  if (footprints > 0) {
    const std::size_t stride =
        std::max<std::size_t>(1, (footprints + slots - 1) / slots);
    for (std::size_t ro = 0; ro + s <= ref.size(); ro += stride) {
      const std::size_t slot = ref_scan.at(ro) & mask;
      if (table[slot] < 0) table[slot] = static_cast<std::int64_t>(ro);
    }
  }

  std::size_t vp = 0;
  std::size_t literal_start = 0;
  while (vp + s <= ver.size()) {
    const std::size_t slot = ver_scan.at(vp) & mask;
    const std::int64_t cand = table[slot];
    if (cand >= 0) {
      const auto ro = static_cast<std::size_t>(cand);
      if (std::memcmp(ref.data() + ro, ver.data() + vp, s) == 0) {
        const std::size_t fwd = s + match_forward(ref, ver, ro + s, vp + s);
        // Backward extension: only pending literal bytes (at or past
        // literal_start) may be retracted — committed commands stand.
        std::size_t back = 0;
        while (back < ro && back < vp - literal_start &&
               ref[ro - back - 1] == ver[vp - back - 1])
          ++back;
        const std::size_t len = fwd + back;
        if (len >= kMinMatch) {
          if (stats) stats->corrections += back;
          const std::size_t wstart = vp - back;
          flush_literal(cmds, ver, literal_start, wstart);
          cmds.push_back(make_copy(wstart, ro - back, len));
          vp = wstart + len;
          literal_start = vp;
          continue;
        }
      }
    }
    ++vp;
  }
  flush_literal(cmds, ver, literal_start, ver.size());
  return cmds;
}

// Re-points copies onto the diagonal and merges the runs that become
// contiguous. Record streams are fixed-width rows, so two members of a
// family agree byte-for-byte at most offsets — but the footprint table
// keeps the FIRST occurrence of repeated content, so the matcher hands
// back an early off-diagonal read_off even when the aligned bytes are
// identical. Diagonal copies serialize as zero deltas (serialize_delta)
// and fuse into longer runs.
std::vector<DeltaCommand> diagonalize(std::vector<DeltaCommand> cmds,
                                      std::span<const std::uint8_t> ref,
                                      std::span<const std::uint8_t> ver) {
  for (DeltaCommand& cmd : cmds) {
    if (cmd.kind != DeltaCommand::Kind::kCopy) continue;
    if (cmd.read_off == cmd.write_off) continue;
    if (cmd.write_off + cmd.length > ref.size()) continue;
    if (std::memcmp(ref.data() + cmd.write_off, ver.data() + cmd.write_off,
                    static_cast<std::size_t>(cmd.length)) == 0)
      cmd.read_off = cmd.write_off;
  }
  // The encoder emits copies in version order, so contiguous diagonal (or
  // merely collinear) neighbours are adjacent here.
  std::vector<DeltaCommand> merged;
  merged.reserve(cmds.size());
  for (DeltaCommand& cmd : cmds) {
    if (!merged.empty() && cmd.kind == DeltaCommand::Kind::kCopy &&
        merged.back().kind == DeltaCommand::Kind::kCopy &&
        merged.back().write_off + merged.back().length == cmd.write_off &&
        merged.back().read_off + merged.back().length == cmd.read_off) {
      merged.back().length += cmd.length;
      continue;
    }
    merged.push_back(std::move(cmd));
  }
  return merged;
}

std::vector<DeltaCommand> delta_commands(std::span<const std::uint8_t> reference,
                                         std::span<const std::uint8_t> version,
                                         DeltaStats* stats) {
  std::vector<DeltaCommand> cmds = diagonalize(
      encode_correcting(reference, version, stats), reference, version);
  // Copies first, then literals, each in version order. apply_delta takes
  // any order; this is the order earlier corpora were written in wherever
  // no copy wrote over another copy's source, so those bytes stay stable.
  std::stable_partition(cmds.begin(), cmds.end(), [](const DeltaCommand& c) {
    return c.kind == DeltaCommand::Kind::kCopy;
  });
  if (stats) {
    for (const DeltaCommand& cmd : cmds) {
      if (cmd.kind == DeltaCommand::Kind::kCopy) {
        ++stats->copies;
        stats->copied_bytes += cmd.length;
      } else {
        ++stats->adds;
        stats->literal_bytes += cmd.length;
      }
    }
  }
  return cmds;
}

}  // namespace

std::vector<std::uint8_t> serialize_delta(std::span<const DeltaCommand> commands,
                                          std::uint64_t ref_len,
                                          std::uint64_t ver_len) {
  support::ByteWriter writer;
  writer.u8(kDeltaMagic);
  writer.u8(kDeltaVersion);
  writer.u8(kDeltaAlgorithm);
  writer.varint(ref_len);
  writer.varint(ver_len);
  // Offsets are relative: write_off as a zigzag delta from the write
  // cursor (the end of the previous command's extent), read_off as a
  // zigzag delta from the command's own write_off. Record streams are
  // fixed-width rows, so cross-member edits leave most copies on the
  // diagonal (read_off == write_off, contiguous with the previous
  // command) — both deltas collapse to single zero bytes and a COPY costs
  // 4 bytes instead of up to 3 full varint offsets.
  std::uint64_t cursor = 0;
  for (const DeltaCommand& cmd : commands) {
    if (cmd.kind == DeltaCommand::Kind::kAdd) {
      writer.u8(kOpAdd);
      writer.svarint(static_cast<std::int64_t>(cmd.write_off - cursor));
      writer.sized_bytes(cmd.bytes);
    } else {
      writer.u8(kOpCopy);
      writer.svarint(static_cast<std::int64_t>(cmd.write_off - cursor));
      writer.svarint(static_cast<std::int64_t>(cmd.read_off - cmd.write_off));
      writer.varint(cmd.length);
    }
    cursor = cmd.write_off + cmd.length;
  }
  writer.u8(kOpEnd);
  return std::move(writer).take();
}

std::vector<std::uint8_t> encode_delta(std::span<const std::uint8_t> reference,
                                       std::span<const std::uint8_t> version,
                                       DeltaStats* stats) {
  const std::vector<DeltaCommand> cmds =
      delta_commands(reference, version, stats);
  return serialize_delta(cmds, reference.size(), version.size());
}

namespace {

bool parse_header(support::ByteReader& reader, DeltaHeader& out) {
  std::uint8_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t algorithm = 0;
  if (!reader.try_u8(magic) || magic != kDeltaMagic) return false;
  if (!reader.try_u8(version) || version != kDeltaVersion) return false;
  if (!reader.try_u8(algorithm) || algorithm != kDeltaAlgorithm) return false;
  return reader.try_varint(out.ref_len) && reader.try_varint(out.ver_len);
}

/// One bounds-checked command; a literal's bytes alias the delta.
struct ParsedCommand {
  std::uint64_t write_off = 0;
  std::uint64_t read_off = 0;  ///< copies only
  std::uint64_t length = 0;
  std::span<const std::uint8_t> literal;  ///< empty for copies
  bool copy = false;
};

/// Parses the command list after the header up to the end marker,
/// checking every read against ref_len and every write against ver_len.
/// Returns the total bytes the commands write, or nullopt when malformed.
std::optional<std::uint64_t> parse_commands(
    support::ByteReader& reader, const DeltaHeader& header,
    std::vector<ParsedCommand>& out) {
  std::uint64_t cursor = 0;
  std::uint64_t written = 0;
  for (;;) {
    std::uint8_t op = 0;
    if (!reader.try_u8(op)) return std::nullopt;
    if (op == kOpEnd) return written;
    std::int64_t dwrite = 0;
    if (!reader.try_svarint(dwrite)) return std::nullopt;
    ParsedCommand cmd;
    // Wraparound from a hostile delta lands far past ver_len and fails
    // the same bounds checks an in-range offset must pass.
    cmd.write_off = cursor + static_cast<std::uint64_t>(dwrite);
    if (op == kOpAdd) {
      if (!reader.try_sized_bytes(cmd.literal)) return std::nullopt;
      cmd.length = cmd.literal.size();
    } else if (op == kOpCopy) {
      std::int64_t dread = 0;
      if (!reader.try_svarint(dread) || !reader.try_varint(cmd.length))
        return std::nullopt;
      cmd.copy = true;
      cmd.read_off = cmd.write_off + static_cast<std::uint64_t>(dread);
      if (cmd.read_off > header.ref_len ||
          cmd.length > header.ref_len - cmd.read_off)
        return std::nullopt;
    } else {
      return std::nullopt;
    }
    if (cmd.write_off > header.ver_len ||
        cmd.length > header.ver_len - cmd.write_off)
      return std::nullopt;
    cursor = cmd.write_off + cmd.length;
    // Copies are bounded by the reference and literals by the delta
    // itself, so the sum stays far below 2^64.
    written += cmd.length;
    out.push_back(cmd);
  }
}

}  // namespace

std::optional<DeltaHeader> read_delta_header(
    std::span<const std::uint8_t> delta) {
  support::ByteReader reader(delta);
  DeltaHeader header;
  if (!parse_header(reader, header)) return std::nullopt;
  return header;
}

std::optional<std::vector<std::uint8_t>> apply_delta(
    std::span<const std::uint8_t> reference,
    std::span<const std::uint8_t> delta) {
  support::ByteReader reader(delta);
  DeltaHeader header;
  if (!parse_header(reader, header)) return std::nullopt;
  if (header.ref_len != reference.size()) return std::nullopt;
  // Validate everything before allocating ver_len bytes: an encoder's
  // commands tile the version exactly, so a header claiming more bytes
  // than the commands write is forged, whatever its CRC.
  std::vector<ParsedCommand> commands;
  const std::optional<std::uint64_t> written =
      parse_commands(reader, header, commands);
  if (!written.has_value() || *written < header.ver_len ||
      !reader.exhausted())
    return std::nullopt;
  std::vector<std::uint8_t> out(static_cast<std::size_t>(header.ver_len), 0);
  for (const ParsedCommand& cmd : commands) {
    if (cmd.length == 0) continue;
    const std::uint8_t* from =
        cmd.copy ? reference.data() + cmd.read_off : cmd.literal.data();
    std::memcpy(out.data() + cmd.write_off, from,
                static_cast<std::size_t>(cmd.length));
  }
  return out;
}

}  // namespace cdc::corpus
