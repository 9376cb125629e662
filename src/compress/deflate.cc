#include "compress/deflate.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "compress/crc32.h"
#include "compress/deflate_tables.h"
#include "compress/huffman.h"
#include "support/bitstream.h"
#include "support/check.h"

namespace cdc::compress {

namespace {

using support::BitReader;
using support::BitWriter;

using tables::kCodeLenOrder;
using tables::kDistCodes;
using tables::kEndOfBlock;
using tables::kLengthCodes;
using tables::kNumCodeLen;
using tables::kNumDist;
using tables::kNumLitLen;
using tables::LengthCode;

constexpr int length_to_code_scan(int length) noexcept {
  for (int c = 28; c >= 0; --c)
    if (length >= kLengthCodes[static_cast<std::size_t>(c)].base) return c;
  return 0;
}

constexpr int dist_to_code_scan(int distance) noexcept {
  for (int c = 29; c >= 0; --c)
    if (distance >= kDistCodes[static_cast<std::size_t>(c)].base) return c;
  return 0;
}

// --- Fast symbol maps ----------------------------------------------------
// Direct-indexed replacements for the reverse linear scans above; built at
// compile time from the same alphabet tables they replace.

constexpr std::array<std::uint8_t, kMaxMatch + 1> make_length_to_code() {
  std::array<std::uint8_t, kMaxMatch + 1> t{};
  for (int len = kMinMatch; len <= kMaxMatch; ++len)
    t[static_cast<std::size_t>(len)] =
        static_cast<std::uint8_t>(length_to_code_scan(len));
  return t;
}

inline constexpr auto kLengthToCode = make_length_to_code();

// zlib-style split table: distances 1..256 index the low half directly;
// 257..32768 index the high half by (distance - 1) >> 7, which is exact
// because every distance-code base above 256 is 1 mod 128.
constexpr std::array<std::uint8_t, 512> make_dist_to_code() {
  std::array<std::uint8_t, 512> t{};
  for (int d = 1; d <= kWindowSize; ++d) {
    const auto code = static_cast<std::uint8_t>(dist_to_code_scan(d));
    if (d <= 256) {
      t[static_cast<std::size_t>(d - 1)] = code;
    } else {
      t[static_cast<std::size_t>(256 + ((d - 1) >> 7))] = code;
    }
  }
  return t;
}

inline constexpr auto kDistToCode = make_dist_to_code();

int length_code(int length) noexcept {
  return kLengthToCode[static_cast<std::size_t>(length)];
}

int dist_code(int distance) noexcept {
  return distance <= 256
             ? kDistToCode[static_cast<std::size_t>(distance - 1)]
             : kDistToCode[static_cast<std::size_t>(256 +
                                                    ((distance - 1) >> 7))];
}

// Fixed Huffman code lengths (§3.2.6).
using tables::kFixedDistLengths;
using tables::kFixedLitLenLengths;

// --- Encoder ------------------------------------------------------------

/// Run-length encodes a concatenated code-length sequence into the
/// code-length alphabet (symbols 0..18 with extra-bit payloads).
struct ClToken {
  std::uint8_t symbol;
  std::uint8_t extra;      // payload for 16/17/18
};

std::vector<ClToken> rle_code_lengths(std::span<const std::uint8_t> lens) {
  std::vector<ClToken> out;
  std::size_t i = 0;
  while (i < lens.size()) {
    const std::uint8_t len = lens[i];
    std::size_t run = 1;
    while (i + run < lens.size() && lens[i + run] == len) ++run;
    if (len == 0) {
      std::size_t left = run;
      while (left >= 11) {
        const std::size_t take = std::min<std::size_t>(left, 138);
        out.push_back({18, static_cast<std::uint8_t>(take - 11)});
        left -= take;
      }
      if (left >= 3) {
        out.push_back({17, static_cast<std::uint8_t>(left - 3)});
        left = 0;
      }
      while (left-- > 0) out.push_back({0, 0});
    } else {
      out.push_back({len, 0});
      std::size_t left = run - 1;
      while (left >= 3) {
        const std::size_t take = std::min<std::size_t>(left, 6);
        out.push_back({16, static_cast<std::uint8_t>(take - 3)});
        left -= take;
      }
      while (left-- > 0) out.push_back({len, 0});
    }
    i += run;
  }
  return out;
}

struct BlockPlan {
  // Code lengths over the full alphabets; only the first nlit / ndist
  // (trailing zeros trimmed) are transmitted.
  std::array<std::uint8_t, kNumLitLen> litlen_lengths{};
  std::array<std::uint8_t, kNumDist> dist_lengths{};
  std::size_t nlit = 0;
  std::size_t ndist = 0;
  std::vector<ClToken> cl_tokens;
  std::array<std::uint8_t, kNumCodeLen> cl_lengths{};  // limit 7
  std::size_t header_bits = 0;
  std::size_t body_bits_dynamic = 0;
  std::size_t body_bits_fixed = 0;

  [[nodiscard]] std::span<const std::uint8_t> litlen() const noexcept {
    return std::span<const std::uint8_t>(litlen_lengths).first(nlit);
  }
  [[nodiscard]] std::span<const std::uint8_t> dist() const noexcept {
    return std::span<const std::uint8_t>(dist_lengths).first(ndist);
  }
};

/// Computes the dynamic-block plan and the dynamic/fixed bit costs for one
/// token block.
BlockPlan plan_block(std::span<const Lz77Token> tokens) {
  std::array<std::uint64_t, kNumLitLen> lit_freq{};
  std::array<std::uint64_t, kNumDist> dist_freq{};
  std::size_t extra_bits = 0;
  for (const Lz77Token& t : tokens) {
    if (t.is_literal()) {
      ++lit_freq[t.literal];
    } else {
      const int lc = length_code(t.length);
      const int dc = dist_code(t.distance);
      ++lit_freq[static_cast<std::size_t>(257 + lc)];
      ++dist_freq[static_cast<std::size_t>(dc)];
      extra_bits += kLengthCodes[static_cast<std::size_t>(lc)].extra;
      extra_bits += kDistCodes[static_cast<std::size_t>(dc)].extra;
    }
  }
  ++lit_freq[kEndOfBlock];
  // A distance alphabet must describe at least one code.
  if (std::all_of(dist_freq.begin(), dist_freq.end(),
                  [](std::uint64_t f) { return f == 0; }))
    dist_freq[0] = 1;

  BlockPlan plan;
  package_merge_lengths_into(lit_freq, 15, plan.litlen_lengths);
  package_merge_lengths_into(dist_freq, 15, plan.dist_lengths);

  // Trim trailing zero lengths but keep the §3.2.7 minima.
  plan.nlit = kNumLitLen;
  while (plan.nlit > 257 && plan.litlen_lengths[plan.nlit - 1] == 0)
    --plan.nlit;
  plan.ndist = kNumDist;
  while (plan.ndist > 1 && plan.dist_lengths[plan.ndist - 1] == 0)
    --plan.ndist;

  std::array<std::uint8_t, kNumLitLen + kNumDist> all_lengths{};
  std::copy_n(plan.litlen_lengths.begin(), plan.nlit, all_lengths.begin());
  std::copy_n(plan.dist_lengths.begin(), plan.ndist,
              all_lengths.begin() + static_cast<std::ptrdiff_t>(plan.nlit));
  plan.cl_tokens = rle_code_lengths(
      std::span<const std::uint8_t>(all_lengths).first(plan.nlit +
                                                       plan.ndist));

  std::array<std::uint64_t, kNumCodeLen> cl_freq{};
  for (const ClToken& t : plan.cl_tokens) ++cl_freq[t.symbol];
  package_merge_lengths_into(cl_freq, 7, plan.cl_lengths);

  std::size_t ncl = kNumCodeLen;
  while (ncl > 4 && plan.cl_lengths[kCodeLenOrder[ncl - 1]] == 0) --ncl;

  plan.header_bits = 5 + 5 + 4 + 3 * ncl;
  for (const ClToken& t : plan.cl_tokens) {
    plan.header_bits += plan.cl_lengths[t.symbol];
    if (t.symbol == 16) plan.header_bits += 2;
    if (t.symbol == 17) plan.header_bits += 3;
    if (t.symbol == 18) plan.header_bits += 7;
  }

  // Lengths past nlit / ndist are zero, so the full arrays cost the same.
  for (std::size_t s = 0; s < lit_freq.size(); ++s) {
    plan.body_bits_dynamic += lit_freq[s] * plan.litlen_lengths[s];
    plan.body_bits_fixed += lit_freq[s] * kFixedLitLenLengths[s];
  }
  for (std::size_t s = 0; s < dist_freq.size(); ++s) {
    plan.body_bits_dynamic += dist_freq[s] * plan.dist_lengths[s];
    plan.body_bits_fixed += dist_freq[s] * kFixedDistLengths[s];
  }
  plan.body_bits_dynamic += extra_bits;
  plan.body_bits_fixed += extra_bits;
  return plan;
}

/// A Huffman code ready for BitWriter::put_bits: bit-reversed (DEFLATE
/// emits codes MSB-first, the writer packs LSB-first) with its length.
struct EmitCode {
  std::uint16_t bits = 0;
  std::uint8_t len = 0;
};

std::uint32_t reverse_code(std::uint32_t code, int length) noexcept {
  std::uint32_t reversed = 0;
  for (int i = 0; i < length; ++i)
    reversed |= ((code >> i) & 1u) << (length - 1 - i);
  return reversed;
}

template <std::size_t N>
void build_emit_codes(std::span<const std::uint8_t> lengths,
                      std::array<EmitCode, N>& out) {
  const std::vector<std::uint32_t> codes = canonical_codes(lengths);
  out.fill(EmitCode{});
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] == 0) continue;
    out[s].bits = static_cast<std::uint16_t>(
        reverse_code(codes[s], lengths[s]));
    out[s].len = lengths[s];
  }
}

/// Emit codes of the fixed block (§3.2.6), built once per process.
struct FixedEmitCodes {
  std::array<EmitCode, kNumLitLen> lit;
  std::array<EmitCode, 32> dist;
};

const FixedEmitCodes& fixed_emit_codes() {
  static const FixedEmitCodes codes = [] {
    FixedEmitCodes fixed;
    build_emit_codes(kFixedLitLenLengths, fixed.lit);
    build_emit_codes(kFixedDistLengths, fixed.dist);
    return fixed;
  }();
  return codes;
}

void emit_tokens(BitWriter& bw, std::span<const Lz77Token> tokens,
                 const std::array<EmitCode, kNumLitLen>& lit,
                 const std::array<EmitCode, 32>& dist) {
  for (const Lz77Token& t : tokens) {
    if (t.is_literal()) {
      const EmitCode& e = lit[t.literal];
      bw.put_bits(e.bits, e.len);
      continue;
    }
    // Pack length code + length extra + distance code + distance extra
    // into a single accumulator write (at most 15+5+15+13 = 48 bits).
    const int lc = length_code(t.length);
    const LengthCode& le = kLengthCodes[static_cast<std::size_t>(lc)];
    const EmitCode& el = lit[static_cast<std::size_t>(257 + lc)];
    std::uint64_t bits = el.bits;
    int count = el.len;
    bits |= static_cast<std::uint64_t>(t.length - le.base) << count;
    count += le.extra;

    const int dc = dist_code(t.distance);
    const LengthCode& de = kDistCodes[static_cast<std::size_t>(dc)];
    const EmitCode& ed = dist[static_cast<std::size_t>(dc)];
    bits |= static_cast<std::uint64_t>(ed.bits) << count;
    count += ed.len;
    bits |= static_cast<std::uint64_t>(t.distance - de.base) << count;
    count += de.extra;
    bw.put_bits(bits, count);
  }
  bw.put_bits(lit[kEndOfBlock].bits, lit[kEndOfBlock].len);
}

void emit_stored_block(BitWriter& bw, std::span<const std::uint8_t> raw,
                       bool final_block) {
  std::size_t off = 0;
  do {
    const std::size_t take = std::min<std::size_t>(raw.size() - off, 65535);
    const bool last_piece = off + take == raw.size();
    bw.write(final_block && last_piece ? 1u : 0u, 1);
    bw.write(0u, 2);  // BTYPE = 00
    bw.align_to_byte();
    const auto len = static_cast<std::uint16_t>(take);
    bw.append_byte(static_cast<std::uint8_t>(len));
    bw.append_byte(static_cast<std::uint8_t>(len >> 8));
    const std::uint16_t nlen = ~len;
    bw.append_byte(static_cast<std::uint8_t>(nlen));
    bw.append_byte(static_cast<std::uint8_t>(nlen >> 8));
    bw.append_bytes(raw.subspan(off, take));
    off += take;
  } while (off < raw.size());
}

void emit_dynamic_header(BitWriter& bw, const BlockPlan& plan) {
  std::size_t ncl = kNumCodeLen;
  while (ncl > 4 && plan.cl_lengths[kCodeLenOrder[ncl - 1]] == 0) --ncl;

  bw.write(static_cast<std::uint32_t>(plan.nlit - 257), 5);
  bw.write(static_cast<std::uint32_t>(plan.ndist - 1), 5);
  bw.write(static_cast<std::uint32_t>(ncl - 4), 4);
  for (std::size_t i = 0; i < ncl; ++i)
    bw.write(plan.cl_lengths[kCodeLenOrder[i]], 3);

  const auto cl_codes = canonical_codes(plan.cl_lengths);
  for (const ClToken& t : plan.cl_tokens) {
    bw.write_huffman(cl_codes[t.symbol], plan.cl_lengths[t.symbol]);
    if (t.symbol == 16) bw.write(t.extra, 2);
    if (t.symbol == 17) bw.write(t.extra, 3);
    if (t.symbol == 18) bw.write(t.extra, 7);
  }
}

/// Per-thread codec scratch: the LZ77 chain workspace plus the token
/// buffer, both recycled across calls so steady-state compression does
/// not allocate. Holds capacity only — never data that could leak between
/// inputs (see the determinism contract in deflate.h).
struct DeflateScratch {
  Lz77Workspace workspace;
  std::vector<Lz77Token> tokens;
};

DeflateScratch& deflate_scratch() {
  thread_local DeflateScratch scratch;
  return scratch;
}

/// Emits the complete DEFLATE stream for `input` into `bw` (which may
/// already hold container header bytes, e.g. gzip's).
void deflate_into(BitWriter& bw, std::span<const std::uint8_t> input,
                  DeflateLevel level) {
  if (input.empty() || level == DeflateLevel::kStored) {
    // A single (possibly empty) run of stored blocks.
    emit_stored_block(bw, input, /*final_block=*/true);
    return;
  }

  DeflateScratch& scratch = deflate_scratch();
  std::vector<Lz77Token>& tokens = scratch.tokens;
  lz77_tokenize_into(scratch.workspace, input, lz77_params_for(level),
                     tokens);

  std::array<EmitCode, kNumLitLen> lit_emit;
  std::array<EmitCode, 32> dist_emit;

  // Chunk the token stream into blocks so that each block gets Huffman
  // tables fit to its local statistics.
  constexpr std::size_t kTokensPerBlock = 1 << 16;
  std::size_t tok_begin = 0;
  std::size_t byte_begin = 0;
  while (tok_begin < tokens.size() || byte_begin == 0) {
    const std::size_t tok_end =
        std::min(tokens.size(), tok_begin + kTokensPerBlock);
    std::size_t byte_end = byte_begin;
    for (std::size_t i = tok_begin; i < tok_end; ++i)
      byte_end += tokens[i].is_literal() ? 1 : tokens[i].length;
    const bool final_block = tok_end == tokens.size();
    const std::span<const Lz77Token> block{tokens.data() + tok_begin,
                                           tok_end - tok_begin};

    const BlockPlan plan = plan_block(block);
    const std::size_t dynamic_bits =
        3 + plan.header_bits + plan.body_bits_dynamic;
    const std::size_t fixed_bits = 3 + plan.body_bits_fixed;
    const std::size_t stored_bits =
        3 + 7 + 32 + 8 * (byte_end - byte_begin);

    if (stored_bits < dynamic_bits && stored_bits < fixed_bits) {
      emit_stored_block(bw, input.subspan(byte_begin, byte_end - byte_begin),
                        final_block);
    } else if (fixed_bits <= dynamic_bits) {
      bw.write(final_block ? 1u : 0u, 1);
      bw.write(1u, 2);  // BTYPE = 01 fixed
      const FixedEmitCodes& fixed = fixed_emit_codes();
      emit_tokens(bw, block, fixed.lit, fixed.dist);
    } else {
      bw.write(final_block ? 1u : 0u, 1);
      bw.write(2u, 2);  // BTYPE = 10 dynamic
      emit_dynamic_header(bw, plan);
      build_emit_codes(plan.litlen(), lit_emit);
      build_emit_codes(plan.dist(), dist_emit);
      emit_tokens(bw, block, lit_emit, dist_emit);
    }

    tok_begin = tok_end;
    byte_begin = byte_end;
    if (final_block) break;
  }
}

}  // namespace

Lz77Params lz77_params_for(DeflateLevel level) noexcept {
  switch (level) {
    case DeflateLevel::kFast:
      return {.max_chain = 32, .good_length = 8, .nice_length = 128,
              .lazy = true};
    case DeflateLevel::kBest:
      return {.max_chain = 1024, .good_length = 32, .nice_length = 258,
              .lazy = true};
    case DeflateLevel::kStored:
    case DeflateLevel::kDefault:
      break;
  }
  return {};
}

std::string_view to_string(DeflateLevel level) noexcept {
  switch (level) {
    case DeflateLevel::kStored: return "stored";
    case DeflateLevel::kFast: return "fast";
    case DeflateLevel::kDefault: return "default";
    case DeflateLevel::kBest: return "best";
  }
  return "unknown";
}

std::optional<DeflateLevel> deflate_level_from_name(
    std::string_view name) noexcept {
  if (name == "stored") return DeflateLevel::kStored;
  if (name == "fast") return DeflateLevel::kFast;
  if (name == "default") return DeflateLevel::kDefault;
  if (name == "best") return DeflateLevel::kBest;
  return std::nullopt;
}

namespace detail {

int length_to_code(int length) noexcept { return length_code(length); }

int dist_to_code(int distance) noexcept { return dist_code(distance); }

int length_to_code_reference(int length) noexcept {
  return length_to_code_scan(length);
}

int dist_to_code_reference(int distance) noexcept {
  return dist_to_code_scan(distance);
}

}  // namespace detail

std::vector<std::uint8_t> deflate_compress(
    std::span<const std::uint8_t> input, DeflateLevel level,
    std::vector<std::uint8_t> reuse) {
  BitWriter bw(std::move(reuse));
  deflate_into(bw, input, level);
  return std::move(bw).finish();
}

namespace {

/// Decodes one Huffman symbol; -1 on malformed input.
int decode_symbol(BitReader& br, HuffmanDecoder& dec) {
  return dec.decode(br);
}

bool inflate_block_body(BitReader& br, HuffmanDecoder& lit_dec,
                        HuffmanDecoder& dist_dec,
                        std::vector<std::uint8_t>& out) {
  for (;;) {
    const int sym = decode_symbol(br, lit_dec);
    if (sym < 0) return false;
    if (sym < 256) {
      out.push_back(static_cast<std::uint8_t>(sym));
      continue;
    }
    if (sym == kEndOfBlock) return true;
    const int lc = sym - 257;
    if (lc >= static_cast<int>(kLengthCodes.size())) return false;
    const LengthCode& le = kLengthCodes[static_cast<std::size_t>(lc)];
    std::uint32_t extra = 0;
    if (le.extra > 0 && !br.try_read(le.extra, extra)) return false;
    const std::size_t length = le.base + extra;

    const int dsym = decode_symbol(br, dist_dec);
    if (dsym < 0 || dsym >= static_cast<int>(kDistCodes.size())) return false;
    const LengthCode& de = kDistCodes[static_cast<std::size_t>(dsym)];
    std::uint32_t dextra = 0;
    if (de.extra > 0 && !br.try_read(de.extra, dextra)) return false;
    const std::size_t distance = de.base + dextra;
    if (distance == 0 || distance > out.size()) return false;

    const std::size_t start = out.size() - distance;
    for (std::size_t i = 0; i < length; ++i)
      out.push_back(out[start + i]);
  }
}

bool read_dynamic_tables(BitReader& br, HuffmanDecoder& lit_dec,
                         HuffmanDecoder& dist_dec) {
  std::uint32_t hlit = 0;
  std::uint32_t hdist = 0;
  std::uint32_t hclen = 0;
  if (!br.try_read(5, hlit) || !br.try_read(5, hdist) ||
      !br.try_read(4, hclen))
    return false;
  const std::size_t nlit = hlit + 257;
  const std::size_t ndist = hdist + 1;
  const std::size_t ncl = hclen + 4;
  if (nlit > kNumLitLen || ndist > 32) return false;

  std::vector<std::uint8_t> cl_lengths(kNumCodeLen, 0);
  for (std::size_t i = 0; i < ncl; ++i) {
    std::uint32_t v = 0;
    if (!br.try_read(3, v)) return false;
    cl_lengths[kCodeLenOrder[i]] = static_cast<std::uint8_t>(v);
  }
  HuffmanDecoder cl_dec;
  if (!cl_dec.init(cl_lengths)) return false;

  std::vector<std::uint8_t> lengths;
  lengths.reserve(nlit + ndist);
  while (lengths.size() < nlit + ndist) {
    const int sym = decode_symbol(br, cl_dec);
    if (sym < 0) return false;
    if (sym < 16) {
      lengths.push_back(static_cast<std::uint8_t>(sym));
    } else if (sym == 16) {
      std::uint32_t rep = 0;
      if (!br.try_read(2, rep) || lengths.empty()) return false;
      const std::uint8_t prev = lengths.back();
      for (std::uint32_t i = 0; i < rep + 3; ++i) lengths.push_back(prev);
    } else if (sym == 17) {
      std::uint32_t rep = 0;
      if (!br.try_read(3, rep)) return false;
      for (std::uint32_t i = 0; i < rep + 3; ++i) lengths.push_back(0);
    } else {
      std::uint32_t rep = 0;
      if (!br.try_read(7, rep)) return false;
      for (std::uint32_t i = 0; i < rep + 11; ++i) lengths.push_back(0);
    }
  }
  if (lengths.size() != nlit + ndist) return false;

  const std::span<const std::uint8_t> all{lengths};
  if (!lit_dec.init(all.subspan(0, nlit))) return false;
  // An all-zero distance alphabet is legal when the block has no matches;
  // init() rejects it, so tolerate that case with an unusable decoder.
  const auto dist_lengths = all.subspan(nlit, ndist);
  if (!dist_dec.init(dist_lengths)) {
    const bool all_zero =
        std::all_of(dist_lengths.begin(), dist_lengths.end(),
                    [](std::uint8_t l) { return l == 0; });
    if (!all_zero) return false;
  }
  return true;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> deflate_decompress_reference(
    std::span<const std::uint8_t> compressed) {
  BitReader br(compressed);
  std::vector<std::uint8_t> out;
  for (;;) {
    std::uint32_t bfinal = 0;
    std::uint32_t btype = 0;
    if (!br.try_read_bit(bfinal) || !br.try_read(2, btype))
      return std::nullopt;
    if (btype == 0) {
      std::span<const std::uint8_t> header;
      if (!br.try_read_aligned_bytes(4, header)) return std::nullopt;
      const std::uint16_t len =
          static_cast<std::uint16_t>(header[0] | (header[1] << 8));
      const std::uint16_t nlen =
          static_cast<std::uint16_t>(header[2] | (header[3] << 8));
      if (static_cast<std::uint16_t>(~len) != nlen) return std::nullopt;
      std::span<const std::uint8_t> raw;
      if (!br.try_read_aligned_bytes(len, raw)) return std::nullopt;
      out.insert(out.end(), raw.begin(), raw.end());
    } else if (btype == 1) {
      HuffmanDecoder lit_dec(kFixedLitLenLengths);
      HuffmanDecoder dist_dec(kFixedDistLengths);
      if (!inflate_block_body(br, lit_dec, dist_dec, out))
        return std::nullopt;
    } else if (btype == 2) {
      HuffmanDecoder lit_dec;
      HuffmanDecoder dist_dec;
      if (!read_dynamic_tables(br, lit_dec, dist_dec)) return std::nullopt;
      if (!inflate_block_body(br, lit_dec, dist_dec, out))
        return std::nullopt;
    } else {
      return std::nullopt;
    }
    if (bfinal) return out;
  }
}

// --- gzip container (RFC 1952) -------------------------------------------

std::vector<std::uint8_t> gzip_compress(std::span<const std::uint8_t> input,
                                        DeflateLevel level,
                                        std::vector<std::uint8_t> reuse) {
  static constexpr std::array<std::uint8_t, 10> kHeader = {
      0x1f, 0x8b,  // magic
      0x08,        // CM = deflate
      0x00,        // FLG
      0, 0, 0, 0,  // MTIME
      0x00,        // XFL
      0xff,        // OS = unknown
  };
  BitWriter bw(std::move(reuse));
  bw.append_bytes(kHeader);
  deflate_into(bw, input, level);
  bw.align_to_byte();
  const std::uint32_t crc = crc32(input);
  const auto isize = static_cast<std::uint32_t>(input.size());
  for (int i = 0; i < 4; ++i)
    bw.append_byte(static_cast<std::uint8_t>(crc >> (8 * i)));
  for (int i = 0; i < 4; ++i)
    bw.append_byte(static_cast<std::uint8_t>(isize >> (8 * i)));
  return std::move(bw).finish();
}

std::optional<std::vector<std::uint8_t>> gzip_decompress(
    std::span<const std::uint8_t> compressed,
    std::vector<std::uint8_t> reuse) {
  if (compressed.size() < 18) return std::nullopt;
  if (compressed[0] != 0x1f || compressed[1] != 0x8b || compressed[2] != 0x08)
    return std::nullopt;
  const std::uint8_t flg = compressed[3];
  std::size_t pos = 10;
  // Optional fields: FEXTRA, FNAME, FCOMMENT, FHCRC.
  if (flg & 0x04) {  // FEXTRA
    if (compressed.size() < pos + 2) return std::nullopt;
    const std::size_t xlen = compressed[pos] | (compressed[pos + 1] << 8);
    pos += 2 + xlen;
  }
  for (const std::uint8_t bit : {std::uint8_t{0x08}, std::uint8_t{0x10}}) {
    if (flg & bit) {  // FNAME / FCOMMENT: zero-terminated
      while (pos < compressed.size() && compressed[pos] != 0) ++pos;
      ++pos;
    }
  }
  if (flg & 0x02) pos += 2;  // FHCRC
  if (compressed.size() < pos + 8) return std::nullopt;

  const auto body = compressed.subspan(pos, compressed.size() - pos - 8);
  auto decoded = deflate_decompress(body, std::move(reuse));
  if (!decoded) return std::nullopt;

  const auto trailer = compressed.subspan(compressed.size() - 8);
  std::uint32_t crc = 0;
  std::uint32_t isize = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(trailer[static_cast<std::size_t>(i)])
           << (8 * i);
    isize |=
        static_cast<std::uint32_t>(trailer[static_cast<std::size_t>(4 + i)])
        << (8 * i);
  }
  if (crc32(*decoded) != crc) return std::nullopt;
  if (static_cast<std::uint32_t>(decoded->size()) != isize)
    return std::nullopt;
  return decoded;
}

}  // namespace cdc::compress
