#include "store/container_reader.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>

#include "compress/crc32.h"
#include "obs/metrics.h"
#include "store/container_writer.h"
#include "support/binary.h"
#include "support/check.h"
#include "support/file.h"

namespace cdc::store {

namespace {

std::string offset_str(std::uint64_t offset) {
  return "offset " + std::to_string(offset);
}

/// The epoch section in front of the stream index at `index_at`, located
/// by its own fixed-size footer.
struct EpochSection {
  bool present = false;  ///< the epoch footer magic is there
  std::string error;     ///< length or CRC refused; empty when intact
  std::size_t footer_at = 0;
  std::size_t at = 0;                   ///< first byte, when intact
  std::span<const std::uint8_t> bytes;  ///< the section, when intact
};

EpochSection locate_epoch_section(std::span<const std::uint8_t> all,
                                  std::size_t index_at) {
  EpochSection section;
  // No magic there = old container; fine.
  if (index_at < kContainerHeaderSize + kEpochFooterSize) return section;
  section.footer_at = index_at - kEpochFooterSize;
  if (std::memcmp(all.data() + section.footer_at + 12, kEpochFooterMagic,
                  8) != 0)
    return section;
  section.present = true;
  support::ByteReader footer(all.subspan(section.footer_at, kEpochFooterSize));
  const std::uint32_t epoch_crc = footer.u32();
  const std::uint64_t epoch_len = footer.u64();
  if (epoch_len > section.footer_at - kContainerHeaderSize) {
    section.error = "epoch index length exceeds file";
    return section;
  }
  const std::size_t at =
      section.footer_at - static_cast<std::size_t>(epoch_len);
  const auto bytes = all.subspan(at, static_cast<std::size_t>(epoch_len));
  if (compress::crc32(bytes) != epoch_crc) {
    section.error = "epoch index crc mismatch";
    return section;
  }
  section.at = at;
  section.bytes = bytes;
  return section;
}

/// Reads the stream index entries from `in` into `index`, refusing any
/// that points outside [header, data_end); returns the refusal, or nullptr.
const char* read_stream_index(
    support::ByteReader& in, std::uint64_t data_end,
    std::map<runtime::StreamKey, StreamIndexEntry>& index) {
  std::uint64_t stream_count = 0;
  if (!in.try_varint(stream_count)) return "truncated index";
  for (std::uint64_t s = 0; s < stream_count; ++s) {
    std::int64_t rank = 0;
    std::uint64_t callsite = 0;
    std::uint64_t frame_count = 0;
    std::uint64_t payload_bytes = 0;
    if (!in.try_svarint(rank) || !in.try_varint(callsite) ||
        !in.try_varint(frame_count) || !in.try_varint(payload_bytes))
      return "truncated index entry";
    // read_stream reserves this many bytes, so a forged size must not
    // get past the open.
    if (payload_bytes > data_end - kContainerHeaderSize)
      return "index payload size exceeds data region";
    StreamIndexEntry entry;
    entry.key = runtime::StreamKey{
        static_cast<minimpi::Rank>(rank),
        static_cast<minimpi::CallsiteId>(callsite)};
    entry.payload_bytes = payload_bytes;
    entry.frame_offsets.reserve(
        std::min<std::uint64_t>(frame_count, in.remaining()));
    std::uint64_t offset = 0;
    for (std::uint64_t f = 0; f < frame_count; ++f) {
      std::uint64_t delta = 0;
      if (!in.try_varint(delta)) return "truncated index offsets";
      offset += delta;
      if (offset < kContainerHeaderSize || offset >= data_end)
        return "index offset out of range";
      entry.frame_offsets.push_back(offset);
    }
    index.emplace(entry.key, std::move(entry));
  }
  return nullptr;
}

/// Reads an intact epoch section into `epochs` and checks that epoch e of
/// each stream lives in its frame e, as `frames_of(key)` lists the frame
/// offsets (nullptr: no such stream). Returns the refusal, or nullptr.
template <typename FramesOf>
const char* read_epoch_index(
    std::span<const std::uint8_t> bytes, FramesOf frames_of,
    std::map<runtime::StreamKey, StreamEpochIndex>& epochs) {
  support::ByteReader in(bytes);
  std::uint64_t stream_count = 0;
  if (!in.try_varint(stream_count)) return "truncated epoch index";
  for (std::uint64_t s = 0; s < stream_count; ++s) {
    std::int64_t rank = 0;
    std::uint64_t callsite = 0;
    std::uint64_t epoch_count = 0;
    if (!in.try_svarint(rank) || !in.try_varint(callsite) ||
        !in.try_varint(epoch_count))
      return "truncated epoch index";
    StreamEpochIndex entry;
    entry.key =
        runtime::StreamKey{static_cast<minimpi::Rank>(rank),
                           static_cast<minimpi::CallsiteId>(callsite)};
    entry.epochs.reserve(
        std::min<std::uint64_t>(epoch_count, in.remaining()));
    std::uint64_t offset = 0;
    for (std::uint64_t e = 0; e < epoch_count; ++e) {
      EpochRecord record;
      std::uint64_t delta = 0;
      if (!in.try_varint(delta) || !in.try_varint(record.matched) ||
          !in.try_varint(record.unmatched))
        return "truncated epoch index";
      offset += delta;
      record.frame_offset = offset;
      entry.epochs.push_back(record);
    }
    epochs.emplace(entry.key, std::move(entry));
  }
  if (!in.exhausted()) return "truncated epoch index";

  // A mismatch means the epoch index or the frame listing is lying; the
  // frame CRCs will arbitrate at read time, but the epoch map cannot be
  // used for seeking.
  for (const auto& [key, entry] : epochs) {
    const std::vector<std::uint64_t>* frames = frames_of(key);
    if (frames == nullptr || frames->size() != entry.epochs.size())
      return "epoch index disagrees with stream index";
    for (std::size_t e = 0; e < entry.epochs.size(); ++e)
      if (entry.epochs[e].frame_offset != (*frames)[e])
        return "epoch index frame offset mismatch";
  }
  return nullptr;
}

/// A payload visitor that concatenates onto `out`.
auto append_to(std::vector<std::uint8_t>& out) {
  return [&out](std::span<const std::uint8_t> payload) {
    out.insert(out.end(), payload.begin(), payload.end());
  };
}

}  // namespace

std::string VerifyReport::summary() const {
  std::string out = ok ? "OK" : "CORRUPT";
  out += ": " + std::to_string(frames_checked) + " frames, " +
         std::to_string(payload_bytes) + " payload bytes";
  if (!bad_frames.empty())
    out += ", " + std::to_string(bad_frames.size()) + " bad frame(s)";
  if (!container_errors.empty())
    out += ", " + std::to_string(container_errors.size()) +
           " container error(s)";
  return out;
}

std::unique_ptr<ContainerReader> ContainerReader::open(
    const std::string& path, std::string* error) {
  std::optional<std::vector<std::uint8_t>> bytes = support::read_file(path);
  if (!bytes.has_value()) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return nullptr;
  }
  // Any readable file opens — even one truncated below the header+footer
  // minimum (an empty container, a crash during the very first write).
  // Damage is reported through header/index diagnostics so the salvage
  // path can still return the (possibly empty) record instead of failing
  // closed.
  auto reader = std::unique_ptr<ContainerReader>(new ContainerReader());
  reader->bytes_ = std::move(*bytes);
  reader->parse_footer_and_index();
  return reader;
}

void ContainerReader::parse_footer_and_index() {
  // Header.
  header_ok_ = bytes_.size() >= kContainerHeaderSize &&
               std::memcmp(bytes_.data(), kContainerMagic, 4) == 0 &&
               bytes_[4] == kContainerVersion && bytes_[5] == 0 &&
               bytes_[6] == 0 && bytes_[7] == 0;
  if (!header_ok_)
    header_error_ = bytes_.size() < kContainerHeaderSize
                        ? "file smaller than the container header"
                        : "bad container header (magic/version)";

  // Fixed-size footer at EOF. A file too small to hold one is a container
  // truncated before (or inside) its footer: no index, data region is
  // whatever frames survive a sequential scan.
  if (bytes_.size() < kContainerHeaderSize + kContainerFooterSize) {
    index_error_ = "file too small for an index footer (truncated?)";
    return;
  }
  const std::span<const std::uint8_t> all(bytes_);
  const std::size_t footer_at = bytes_.size() - kContainerFooterSize;
  support::ByteReader footer(all.subspan(footer_at, kContainerFooterSize));
  const std::uint32_t index_crc = footer.u32();
  const std::uint64_t index_len = footer.u64();
  if (std::memcmp(bytes_.data() + footer_at + 12, kFooterMagic, 8) != 0) {
    index_error_ = "bad footer magic";
    end_data_before_trailing_sections();
    return;
  }
  if (index_len > footer_at - kContainerHeaderSize) {
    index_error_ = "footer index length exceeds file";
    end_data_before_trailing_sections();
    return;
  }
  const std::size_t index_at = footer_at - index_len;
  data_end_ = index_at;  // trustworthy once the index CRC matches
  // A refused index still sits after the frames, and so does an intact
  // epoch section in front of it: the data region ends before both, so
  // the sequential fallback does not scan into the section.
  const auto refuse = [&](const char* why) {
    index_error_ = why;
    const EpochSection epochs = locate_epoch_section(all, index_at);
    if (epochs.present && epochs.error.empty()) data_end_ = epochs.at;
  };
  const auto index_bytes =
      all.subspan(index_at, static_cast<std::size_t>(index_len));
  if (compress::crc32(index_bytes) != index_crc) {
    refuse("index crc mismatch");
    return;
  }

  support::ByteReader in(index_bytes);
  if (const char* why = read_stream_index(in, data_end_, index_)) {
    refuse(why);
    return;
  }
  if (!in.exhausted()) {
    refuse("trailing bytes after index");
    return;
  }
  index_ok_ = true;
  parse_epoch_section(index_at);
}

void ContainerReader::end_data_before_trailing_sections() {
  // Scan the frames from the header to the first that does not parse,
  // listing each stream's frame offsets in file order.
  std::map<runtime::StreamKey, std::vector<std::uint64_t>> scanned;
  std::uint64_t pos = kContainerHeaderSize;
  const std::string stop =
      scan_sequential([&](std::uint64_t at, const ParsedFrame& frame) {
        scanned[frame.key].push_back(at);
        pos = at + frame.frame_size;
      });
  if (stop.empty()) return;  // the frames run to the end of the file
  const std::span<const std::uint8_t> all(bytes_);

  // An epoch section starting there, found by its own footer's magic,
  // whose length and CRC check out. It survives the torn footer: check it
  // against the scanned frames.
  std::uint64_t index_at = pos;
  bool trailing = false;
  const auto magic = std::search(all.begin() + static_cast<long>(pos),
                                 all.end(), std::begin(kEpochFooterMagic),
                                 std::end(kEpochFooterMagic));
  if (magic != all.end()) {
    const std::size_t footer_end =
        static_cast<std::size_t>(magic - all.begin()) + 8;
    const EpochSection epochs = locate_epoch_section(all, footer_end);
    if (epochs.present && epochs.error.empty() && epochs.at == pos) {
      trailing = true;
      index_at = footer_end;
      adopt_epoch_index(epochs.bytes, [&](const runtime::StreamKey& key) {
        const auto it = scanned.find(key);
        return it != scanned.end() ? &it->second : nullptr;
      });
    }
  }

  // A stream index (after the epoch section, if any) that lists exactly
  // the scanned frames and ends inside the torn footer.
  support::ByteReader in(all.subspan(static_cast<std::size_t>(index_at)));
  std::map<runtime::StreamKey, StreamIndexEntry> index;
  if (read_stream_index(in, pos, index) == nullptr &&
      in.remaining() <= kContainerFooterSize) {
    std::map<runtime::StreamKey, std::vector<std::uint64_t>> listed;
    for (const auto& [key, entry] : index)
      listed.emplace(key, entry.frame_offsets);
    trailing |= listed == scanned;
  }
  if (trailing) data_end_ = pos;
}

void ContainerReader::parse_epoch_section(std::size_t index_at) {
  const EpochSection section = locate_epoch_section(bytes_, index_at);
  if (!section.present) return;
  epoch_present_ = true;
  epoch_error_ = section.error;
  if (epoch_error_.empty())
    adopt_epoch_index(section.bytes, [&](const runtime::StreamKey& key) {
      const StreamIndexEntry* stream = find(key);
      return stream != nullptr ? &stream->frame_offsets : nullptr;
    });
  if (epoch_ok_) {
    data_end_ = section.at;
    return;
  }

  // On damage: keep the container usable by re-deriving the end of the
  // frame region from the last indexed frame (frames are self-sizing and
  // CRC-protected, so this is safe) instead of trusting a possibly-wrong
  // epoch length.
  data_end_ = section.footer_at;
  std::uint64_t last = 0;
  for (const auto& [key, entry] : index_)
    if (!entry.frame_offsets.empty())
      last = std::max(last, entry.frame_offsets.back());
  if (last != 0) {
    const ParsedFrame frame = parse_frame_at(last, section.footer_at);
    if (frame.parsed && frame.crc_ok) data_end_ = last + frame.frame_size;
  }
}

template <typename FramesOf>
void ContainerReader::adopt_epoch_index(std::span<const std::uint8_t> bytes,
                                        FramesOf frames_of) {
  epoch_present_ = true;
  // find_epochs() reads epochs_ only once epoch_ok_ is set.
  const char* why = read_epoch_index(bytes, frames_of, epochs_);
  epoch_ok_ = why == nullptr;
  if (!epoch_ok_) epoch_error_ = why;
}

const StreamEpochIndex* ContainerReader::find_epochs(
    const runtime::StreamKey& key) const {
  if (!epoch_ok_) return nullptr;
  const auto it = epochs_.find(key);
  return it != epochs_.end() ? &it->second : nullptr;
}

ParsedFrame parse_frame(std::uint8_t magic,
                        std::span<const std::uint8_t> region) {
  ParsedFrame frame;
  support::ByteReader in(region);
  std::uint8_t found = 0;
  if (!in.try_u8(found) || found != magic) {
    frame.parse_error = "bad frame magic";
    return frame;
  }
  std::int64_t rank = 0;
  std::uint64_t callsite = 0;
  std::uint64_t payload_len = 0;
  if (!in.try_svarint(rank) || !in.try_varint(callsite) ||
      !in.try_varint(frame.seq) || !in.try_varint(payload_len)) {
    frame.parse_error = "truncated frame header";
    return frame;
  }
  if (!in.try_bytes(static_cast<std::size_t>(payload_len), frame.payload)) {
    frame.parse_error = "frame payload overruns data region";
    return frame;
  }
  const std::size_t body_end = in.position();
  std::uint32_t stored_crc = 0;
  if (!in.try_u32(stored_crc)) {
    frame.parse_error = "truncated frame crc";
    return frame;
  }
  frame.parsed = true;
  frame.key = runtime::StreamKey{static_cast<minimpi::Rank>(rank),
                                 static_cast<minimpi::CallsiteId>(callsite)};
  frame.frame_size = in.position();
  frame.crc_ok = compress::crc32(region.subspan(1, body_end - 1)) ==
                 stored_crc;
  if (!frame.crc_ok) frame.parse_error = "frame crc mismatch";
  return frame;
}

ParsedFrame ContainerReader::parse_frame_at(std::uint64_t offset,
                                            std::uint64_t limit) const {
  if (offset >= limit) {
    ParsedFrame frame;
    frame.parse_error = "frame offset past data region";
    return frame;
  }
  return parse_frame(kFrameMagic,
                     std::span<const std::uint8_t>(bytes_).subspan(
                         static_cast<std::size_t>(offset),
                         static_cast<std::size_t>(limit - offset)));
}

std::vector<std::uint64_t> ContainerReader::sorted_index_offsets() const {
  std::vector<std::uint64_t> offsets;
  for (const auto& [key, entry] : index_)
    offsets.insert(offsets.end(), entry.frame_offsets.begin(),
                   entry.frame_offsets.end());
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

std::vector<runtime::StreamKey> ContainerReader::keys() const {
  std::vector<runtime::StreamKey> out;
  if (index_ok_) {
    out.reserve(index_.size());
    for (const auto& [key, entry] : index_) out.push_back(key);
    return out;
  }
  for (const GoodFrame& frame : scan_good_frames())
    if (out.empty() || std::find(out.begin(), out.end(), frame.key) ==
                           out.end())
      out.push_back(frame.key);
  return out;
}

const StreamIndexEntry* ContainerReader::find(
    const runtime::StreamKey& key) const {
  const auto it = index_.find(key);
  return it != index_.end() ? &it->second : nullptr;
}

template <typename Visit>
void ContainerReader::visit_payloads(const StreamIndexEntry& entry,
                                     std::uint64_t lo, std::uint64_t hi,
                                     Visit visit) const {
  for (std::uint64_t f = lo; f < hi; ++f) {
    const ParsedFrame frame = parse_frame_at(entry.frame_offsets[f], data_end_);
    CDC_CHECK_MSG(frame.parsed && frame.crc_ok,
                  "container frame corrupt — refusing to replay from it");
    CDC_CHECK_MSG(frame.key == entry.key, "container frame belongs to another "
                                          "stream — index is inconsistent");
    visit(frame.payload);
  }
}

std::vector<std::uint8_t> ContainerReader::read_stream(
    const runtime::StreamKey& key) const {
  CDC_CHECK_MSG(index_ok_,
                "container index unreadable — run verify/repack first");
  const StreamIndexEntry* entry = find(key);
  if (entry == nullptr) return {};
  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(entry->payload_bytes));
  visit_payloads(*entry, 0, entry->frame_offsets.size(), append_to(out));
  return out;
}

std::map<runtime::StreamKey, std::uint64_t>
ContainerReader::stream_payload_bytes() const {
  CDC_CHECK_MSG(index_ok_,
                "container index unreadable — run verify/repack first");
  std::map<runtime::StreamKey, std::uint64_t> sizes;
  for (const auto& [key, entry] : index_) {
    std::uint64_t& total = sizes[key];
    visit_payloads(entry, 0, entry.frame_offsets.size(),
                   [&](std::span<const std::uint8_t> payload) {
                     total += payload.size();
                   });
  }
  return sizes;
}

ContainerReader::WindowRead ContainerReader::read_stream_window(
    const runtime::StreamKey& key, std::uint64_t epoch_lo,
    std::uint64_t epoch_hi) const {
  CDC_CHECK_MSG(index_ok_,
                "container index unreadable — run verify/repack first");
  WindowRead window;
  const StreamEpochIndex* epochs = find_epochs(key);
  if (epochs == nullptr) {
    // Damaged or absent epoch index: loud sequential fallback. The caller
    // gets the whole stream and decodes from epoch 0 — slower, never wrong.
    obs::counter("store.container.epoch_fallbacks").add(1);
    window.bytes = read_stream(key);
    return window;
  }
  // The epoch index was checked against the stream index: epoch e lives
  // in the stream's frame e.
  const std::uint64_t n = epochs->epochs.size();
  window.seeked = true;
  window.first_epoch = std::min(epoch_lo, n);
  visit_payloads(*find(key), window.first_epoch, std::min(epoch_hi, n),
                 append_to(window.bytes));
  return window;
}

VerifyReport ContainerReader::verify() const {
  VerifyReport report;
  if (!header_ok_) {
    report.container_errors.push_back(header_error_);
  }
  if (!index_ok_) report.container_errors.push_back(index_error_);
  if (epoch_present_ && !epoch_ok_)
    report.container_errors.push_back("epoch index: " + epoch_error_);

  // Identity fallback for frames whose own header bytes are mangled.
  std::map<std::uint64_t, std::pair<runtime::StreamKey, std::uint64_t>>
      identity;
  if (index_ok_) {
    for (const auto& [key, entry] : index_)
      for (std::size_t i = 0; i < entry.frame_offsets.size(); ++i)
        identity.emplace(entry.frame_offsets[i], std::make_pair(key, i));
  }

  const auto add_defect = [&](std::uint64_t offset, const ParsedFrame& frame,
                              const std::string& reason) {
    FrameDefect defect;
    defect.offset = offset;
    defect.reason = reason;
    const auto it = identity.find(offset);
    if (it != identity.end()) {
      defect.key_known = true;
      defect.key = it->second.first;
      defect.seq = it->second.second;
    } else if (frame.parsed) {
      defect.key_known = true;
      defect.key = frame.key;
      defect.seq = frame.seq;
    }
    report.bad_frames.push_back(defect);
  };

  if (index_ok_) {
    // Index-driven sweep with a contiguity check: the frames listed in the
    // index must tile the data region exactly, so a flip anywhere in the
    // data region lands inside some checked frame.
    const std::vector<std::uint64_t> offsets = sorted_index_offsets();
    std::map<runtime::StreamKey, std::uint64_t> payload_sums;
    std::uint64_t expected = kContainerHeaderSize;
    for (const std::uint64_t offset : offsets) {
      if (offset != expected)
        report.container_errors.push_back(
            "index/data gap or overlap at " + offset_str(offset));
      const ParsedFrame frame = parse_frame_at(offset, data_end_);
      if (!frame.parsed || !frame.crc_ok) {
        add_defect(offset, frame, frame.parse_error);
        expected = offset;  // resync on the next indexed offset
        continue;
      }
      const auto it = identity.find(offset);
      if (it != identity.end() &&
          (frame.key != it->second.first || frame.seq != it->second.second)) {
        add_defect(offset, frame, "frame identity disagrees with index");
      } else {
        ++report.frames_checked;
        report.payload_bytes += frame.payload.size();
        payload_sums[frame.key] += frame.payload.size();
      }
      expected = offset + frame.frame_size;
    }
    if (report.bad_frames.empty() && expected != data_end_)
      report.container_errors.push_back(
          "data region does not end where the index begins (" +
          offset_str(expected) + " vs " + offset_str(data_end_) + ")");
    if (report.bad_frames.empty())
      for (const auto& [key, entry] : index_)
        if (payload_sums[key] != entry.payload_bytes)
          report.container_errors.push_back(
              "stream rank " + std::to_string(key.rank) + " callsite " +
              std::to_string(key.callsite) + " holds " +
              std::to_string(payload_sums[key]) +
              " payload bytes, index says " +
              std::to_string(entry.payload_bytes));
  } else {
    // No trustworthy index: sequential scan as far as frames parse.
    std::string stop =
        scan_sequential([&](std::uint64_t pos, const ParsedFrame& frame) {
          if (!frame.crc_ok) {
            add_defect(pos, frame, frame.parse_error);
          } else {
            ++report.frames_checked;
            report.payload_bytes += frame.payload.size();
          }
        });
    if (!stop.empty()) report.container_errors.push_back(std::move(stop));
  }

  report.ok = header_ok_ && index_ok_ && report.bad_frames.empty() &&
              report.container_errors.empty();
  return report;
}

template <typename Visit>
std::string ContainerReader::scan_sequential(Visit visit) const {
  const std::uint64_t limit = data_end_ != 0 ? data_end_ : bytes_.size();
  for (std::uint64_t pos = kContainerHeaderSize; pos < limit;) {
    const ParsedFrame frame = parse_frame_at(pos, limit);
    if (!frame.parsed)  // cannot resync without an index
      return "sequential scan stopped at " + offset_str(pos) + " (" +
             frame.parse_error + "); remainder unverified";
    visit(pos, frame);
    pos += frame.frame_size;
  }
  return {};
}

ContainerReader::Listing ContainerReader::list_frames() const {
  Listing listing;
  const auto keep = [&](std::uint64_t offset, const ParsedFrame& frame) {
    if (frame.parsed && frame.crc_ok)
      listing.good.push_back(GoodFrame{offset, frame.key, frame.seq,
                                       frame.payload, frame.frame_size});
  };
  if (index_ok_) {
    for (const auto& [key, entry] : index_)
      listing.listed[key] = entry.frame_offsets.size();
    for (const std::uint64_t offset : sorted_index_offsets())
      keep(offset, parse_frame_at(offset, data_end_));
    return listing;
  }
  listing.scan_stop =
      scan_sequential([&](std::uint64_t pos, const ParsedFrame& frame) {
        ++listing.listed[frame.key];
        keep(pos, frame);
      });
  return listing;
}

std::vector<ContainerReader::GoodFrame> replayable_frames(
    const std::vector<ContainerReader::GoodFrame>& good,
    const std::map<runtime::StreamKey, std::uint64_t>& first_quarantined) {
  std::vector<ContainerReader::GoodFrame> kept;
  // Per stream: the seq its next frame must carry, and the position it is
  // cut at — lowered to that seq by the first frame that does not carry it.
  std::map<runtime::StreamKey, std::uint64_t> next;
  std::map<runtime::StreamKey, std::uint64_t> cut = first_quarantined;
  for (const ContainerReader::GoodFrame& frame : good) {
    std::uint64_t& seq = next[frame.key];
    std::uint64_t& end =
        cut.try_emplace(frame.key, std::numeric_limits<std::uint64_t>::max())
            .first->second;
    if (frame.seq != seq || seq >= end) {
      end = std::min(end, seq);
      continue;
    }
    ++seq;
    kept.push_back(frame);
  }
  return kept;
}

RepackResult repack_container(const std::string& in_path,
                              const std::string& out_path) {
  RepackResult result;
  std::string error;
  const auto reader = ContainerReader::open(in_path, &error);
  if (reader == nullptr) {
    result.error = error;
    return result;
  }
  const ContainerReader::Listing listing = reader->list_frames();
  const auto frames = replayable_frames(listing.good);
  {
    // A kept frame keeps its seq, so epoch record `seq` is still its own.
    ContainerWriter writer(out_path);
    for (const ContainerReader::GoodFrame& frame : frames) {
      const StreamEpochIndex* epochs = reader->find_epochs(frame.key);
      if (epochs != nullptr && frame.seq < epochs->epochs.size() &&
          epochs->epochs[frame.seq].frame_offset == frame.offset) {
        const EpochRecord& epoch = epochs->epochs[frame.seq];
        writer.append_frame(frame.key, frame.payload,
                            runtime::EpochMeta{epoch.matched,
                                               epoch.unmatched});
      } else {
        writer.append_frame(frame.key, frame.payload);
      }
    }
    writer.seal();
  }
  result.ok = true;
  result.frames_kept = frames.size();
  for (const auto& [key, listed] : listing.listed)
    result.frames_dropped += listed;
  result.frames_dropped -= frames.size();
  result.scan_stop = listing.scan_stop;
  result.bytes_in = reader->file_bytes();
  result.bytes_out = std::filesystem::file_size(out_path);
  return result;
}

}  // namespace cdc::store
