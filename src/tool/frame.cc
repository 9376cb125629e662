#include "tool/frame.h"

#include "obs/metrics.h"

namespace cdc::tool {

void write_frame(support::ByteWriter& out, std::uint8_t codec,
                 std::uint64_t meta, std::span<const std::uint8_t> payload,
                 compress::DeflateLevel level, bool deflate) {
  static obs::Counter& deflate_calls =
      obs::counter("record.stage.deflate.calls");
  static obs::Counter& deflate_ns = obs::counter("record.stage.deflate.ns");
  static obs::Counter& deflate_in =
      obs::counter("record.stage.deflate.bytes_in");
  static obs::Counter& deflate_out =
      obs::counter("record.stage.deflate.bytes_out");
  out.u8(kFrameMagic);
  out.u8(codec);
  // The compressed body is staged in a thread-local scratch buffer whose
  // capacity is reclaimed after the copy into `out` — the second half of
  // the allocation-free steady state (the first is `out` itself).
  thread_local std::vector<std::uint8_t> body_scratch;
  const obs::Stopwatch sw;
  std::vector<std::uint8_t> compressed = std::move(body_scratch);
  if (deflate)
    compressed =
        compress::deflate_compress(payload, level, std::move(compressed));
  const bool stored_raw = !deflate || compressed.size() >= payload.size();
  deflate_calls.add(1);
  deflate_ns.add(sw.ns());
  deflate_in.add(payload.size());
  deflate_out.add(stored_raw ? payload.size() : compressed.size());
  out.u8(stored_raw ? 1 : 0);
  out.varint(meta);
  out.varint(payload.size());
  if (stored_raw) {
    out.varint(payload.size());
    out.bytes(payload);
  } else {
    out.varint(compressed.size());
    out.bytes(compressed);
  }
  body_scratch = std::move(compressed);
}

std::vector<std::uint8_t> encode_frame(const FrameJob& job) {
  return encode_frame_into(job, {});
}

std::vector<std::uint8_t> encode_frame_into(
    const FrameJob& job, std::vector<std::uint8_t> reuse) {
  static obs::Counter& frame_bytes = obs::counter("record.frame.bytes_out");
  support::ByteWriter out(std::move(reuse));
  write_frame(out, job.codec, job.meta, job.payload, job.level,
              job.compress);
  std::vector<std::uint8_t> framed = std::move(out).take();
  frame_bytes.add(framed.size());
  return framed;
}

std::optional<Frame> read_frame(support::ByteReader& in) {
  if (in.exhausted()) return std::nullopt;
  std::uint8_t magic = 0;
  if (!in.try_u8(magic) || magic != kFrameMagic) return std::nullopt;
  Frame frame;
  std::uint8_t stored_raw = 0;
  std::uint64_t raw_len = 0;
  std::uint64_t payload_len = 0;
  if (!in.try_u8(frame.codec) || !in.try_u8(stored_raw) ||
      !in.try_varint(frame.meta) || !in.try_varint(raw_len) ||
      !in.try_varint(payload_len))
    return std::nullopt;
  std::span<const std::uint8_t> body;
  if (!in.try_bytes(static_cast<std::size_t>(payload_len), body))
    return std::nullopt;
  // Decode-side twin of write_frame's deflate stage counters, counting
  // every frame as write_frame does, stored-raw ones included, so
  // record_inspector --stats shows both directions over the same frames.
  static obs::Counter& inflate_calls =
      obs::counter("record.stage.inflate.calls");
  static obs::Counter& inflate_ns = obs::counter("record.stage.inflate.ns");
  static obs::Counter& inflate_in =
      obs::counter("record.stage.inflate.bytes_in");
  static obs::Counter& inflate_out =
      obs::counter("record.stage.inflate.bytes_out");
  const obs::Stopwatch sw;
  std::optional<std::vector<std::uint8_t>> decoded;
  if (!stored_raw)
    decoded = compress::deflate_decompress(body);
  else if (raw_len == payload_len)
    decoded.emplace(body.begin(), body.end());
  inflate_calls.add(1);
  inflate_ns.add(sw.ns());
  inflate_in.add(body.size());
  if (!decoded || decoded->size() != raw_len) return std::nullopt;
  inflate_out.add(decoded->size());
  frame.payload = std::move(*decoded);
  return frame;
}

}  // namespace cdc::tool
