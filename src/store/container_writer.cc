#include "store/container_writer.h"

#include <cstdio>
#include <filesystem>

#include "compress/crc32.h"
#include "store/container_reader.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/binary.h"
#include "support/check.h"

namespace cdc::store {

void encode_frame(std::uint8_t magic, const runtime::StreamKey& key,
                  std::uint64_t seq, std::span<const std::uint8_t> payload,
                  support::ByteWriter& out) {
  out.u8(magic);
  const std::size_t body_at = out.size();
  out.svarint(key.rank);
  out.varint(key.callsite);
  out.varint(seq);
  out.varint(payload.size());
  out.bytes(payload);
  out.u32(compress::crc32(out.view().subspan(body_at)));
}

ContainerWriter::ContainerWriter(std::string path)
    : path_(std::move(path)),
      out_(path_, std::ios::binary | std::ios::trunc) {
  if (!out_.good())
    std::fprintf(stderr, "store: cannot create container '%s'\n",
                 path_.c_str());
  CDC_CHECK_MSG(out_.good(), "cannot create record container");
  support::ByteWriter header;
  for (const std::uint8_t byte : kContainerMagic) header.u8(byte);
  header.u8(kContainerVersion);
  for (int i = 0; i < 3; ++i) header.u8(0);
  out_.write(reinterpret_cast<const char*>(header.view().data()),
             static_cast<std::streamsize>(header.size()));
  CDC_CHECK_MSG(out_.good(), "container header write failed");
  offset_ = header.size();
}

ContainerWriter::~ContainerWriter() { seal(); }

std::unique_ptr<ContainerWriter> ContainerWriter::resume(
    const std::string& path, std::uint64_t durable_bytes,
    std::span<const std::optional<runtime::EpochMeta>> metas,
    std::string* error) {
  const auto fail = [&](std::string why) -> std::unique_ptr<ContainerWriter> {
    if (error != nullptr) *error = std::move(why);
    return nullptr;
  };
  const auto reader = ContainerReader::open(path, error);
  if (reader == nullptr) return nullptr;
  if (!reader->header_ok())
    return fail("resume: " + reader->header_error());
  if (durable_bytes < kContainerHeaderSize ||
      reader->file_bytes() < durable_bytes)
    return fail("resume: durable size beyond the file");

  auto writer = std::unique_ptr<ContainerWriter>(
      new ContainerWriter(ResumeTag{}, path));
  writer->offset_ = kContainerHeaderSize;
  std::size_t used = 0;
  for (const ContainerReader::GoodFrame& frame : reader->scan_good_frames()) {
    if (frame.offset >= durable_bytes) break;
    // The durable prefix must be gapless: every byte below durable_bytes
    // was flushed before it was journaled, so a hole means the journal and
    // the container disagree — refuse rather than resurrect wrong bytes.
    if (frame.offset != writer->offset_)
      return fail("resume: damaged frame inside the durable prefix");
    if (used >= metas.size())
      return fail("resume: more durable frames than journal entries");
    if (frame.seq != writer->index_[frame.key].offsets.size())
      return fail("resume: per-stream sequence mismatch");
    const std::optional<runtime::EpochMeta>& meta = metas[used];
    writer->index_frame(frame.key, frame.payload.size(), frame.frame_size,
                        meta.has_value() ? &*meta : nullptr);
    ++used;
  }
  if (writer->offset_ != durable_bytes)
    return fail("resume: durable size is not a frame boundary");
  if (used != metas.size())
    return fail("resume: journal entries beyond the durable prefix");

  // Drop the torn tail, then reopen for appends at the durable boundary.
  // std::ios::in keeps the open from truncating what we just validated.
  std::error_code ec;
  std::filesystem::resize_file(path, durable_bytes, ec);
  if (ec) return fail("resume: truncate failed: " + ec.message());
  writer->out_.open(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!writer->out_.good()) return fail("resume: cannot reopen container");
  writer->out_.seekp(static_cast<std::streamoff>(durable_bytes));
  if (!writer->out_.good()) return fail("resume: seek failed");
  obs::counter("store.container.resumes").add(1);
  return writer;
}

void ContainerWriter::append_frame(const runtime::StreamKey& key,
                                   std::span<const std::uint8_t> payload) {
  const std::lock_guard<std::mutex> lock(mutex_);
  append_frame_locked(key, payload, nullptr);
}

void ContainerWriter::append_frame(const runtime::StreamKey& key,
                                   std::span<const std::uint8_t> payload,
                                   const runtime::EpochMeta& meta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  append_frame_locked(key, payload, &meta);
}

void ContainerWriter::append_frame_locked(
    const runtime::StreamKey& key, std::span<const std::uint8_t> payload,
    const runtime::EpochMeta* meta) {
  CDC_CHECK_MSG(!sealed_, "append_frame on a sealed container");
  support::ByteWriter frame;
  encode_frame(kFrameMagic, key, /*seq=*/index_[key].offsets.size(), payload,
               frame);
  out_.write(reinterpret_cast<const char*>(frame.view().data()),
             static_cast<std::streamsize>(frame.size()));
  CDC_CHECK_MSG(out_.good(), "container frame write failed");
  index_frame(key, payload.size(), frame.size(), meta);

  static obs::Counter& obs_frames = obs::counter("store.container.frames");
  static obs::Counter& obs_payload =
      obs::counter("store.container.payload_bytes");
  obs_frames.add(1);
  obs_payload.add(payload.size());
}

void ContainerWriter::index_frame(const runtime::StreamKey& key,
                                  std::uint64_t payload_size,
                                  std::uint64_t frame_size,
                                  const runtime::EpochMeta* meta) {
  IndexEntry& entry = index_[key];
  if (meta == nullptr) {
    entry.epochs_complete = false;
    entry.epochs.clear();  // a partial epoch map is useless; drop it
  } else if (entry.epochs_complete) {
    entry.epochs.push_back(EpochRecord{offset_, meta->matched,
                                       meta->unmatched});
  }
  entry.offsets.push_back(offset_);
  entry.payload_bytes += payload_size;
  offset_ += frame_size;
  ++frames_;
  payload_bytes_ += payload_size;
}

void ContainerWriter::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (sealed_) return;
  out_.flush();
  CDC_CHECK_MSG(out_.good(), "container flush failed");
}

void ContainerWriter::seal() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (sealed_) return;
  sealed_ = true;
  obs::TraceSpan seal_span("container.seal", -1, "frames", frames_);

  // Epoch index: only streams whose every frame carried metadata. Written
  // before the stream index so old readers — which locate the stream index
  // from the fixed footer alone — skip it without noticing.
  std::size_t epoch_streams = 0;
  for (const auto& [key, entry] : index_)
    if (entry.epochs_complete && !entry.epochs.empty()) ++epoch_streams;
  if (epoch_streams > 0) {
    support::ByteWriter epochs;
    epochs.varint(epoch_streams);
    for (const auto& [key, entry] : index_) {
      if (!entry.epochs_complete || entry.epochs.empty()) continue;
      epochs.svarint(key.rank);
      epochs.varint(key.callsite);
      epochs.varint(entry.epochs.size());
      std::uint64_t previous = 0;
      for (const EpochRecord& epoch : entry.epochs) {
        epochs.varint(epoch.frame_offset - previous);
        previous = epoch.frame_offset;
        epochs.varint(epoch.matched);
        epochs.varint(epoch.unmatched);
      }
    }
    support::ByteWriter epoch_footer;
    epoch_footer.u32(compress::crc32(epochs.view()));
    epoch_footer.u64(epochs.size());
    for (const std::uint8_t byte : kEpochFooterMagic) epoch_footer.u8(byte);
    out_.write(reinterpret_cast<const char*>(epochs.view().data()),
               static_cast<std::streamsize>(epochs.size()));
    out_.write(reinterpret_cast<const char*>(epoch_footer.view().data()),
               static_cast<std::streamsize>(epoch_footer.size()));
    CDC_CHECK_MSG(out_.good(), "container epoch index write failed");
    obs::counter("store.container.epoch_streams").add(epoch_streams);
  }

  support::ByteWriter index;
  index.varint(index_.size());
  for (const auto& [key, entry] : index_) {
    index.svarint(key.rank);
    index.varint(key.callsite);
    index.varint(entry.offsets.size());
    index.varint(entry.payload_bytes);
    // Offsets are strictly increasing; delta-encode them.
    std::uint64_t previous = 0;
    for (const std::uint64_t offset : entry.offsets) {
      index.varint(offset - previous);
      previous = offset;
    }
  }

  support::ByteWriter footer;
  footer.u32(compress::crc32(index.view()));
  footer.u64(index.size());
  for (const std::uint8_t byte : kFooterMagic) footer.u8(byte);

  out_.write(reinterpret_cast<const char*>(index.view().data()),
             static_cast<std::streamsize>(index.size()));
  out_.write(reinterpret_cast<const char*>(footer.view().data()),
             static_cast<std::streamsize>(footer.size()));
  out_.flush();
  CDC_CHECK_MSG(out_.good(), "container index/footer write failed");
  out_.close();
}

void ContainerWriter::abandon() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (sealed_) return;
  sealed_ = true;  // also disarms the destructor's seal()
  out_.flush();
  out_.close();
}

ContainerWriter::Stats ContainerWriter::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return Stats{frames_, payload_bytes_, offset_};
}

std::map<runtime::StreamKey, std::uint64_t> ContainerWriter::stream_bytes()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<runtime::StreamKey, std::uint64_t> out;
  for (const auto& [key, entry] : index_)
    out.emplace_hint(out.end(), key, entry.payload_bytes);
  return out;
}

}  // namespace cdc::store
