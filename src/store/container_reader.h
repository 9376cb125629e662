// Read side of the record container (see container.h for the layout).
//
// open() loads the file and parses the footer index, giving O(1 + index)
// stream lookup without touching the data region. Damage tolerance is the
// point of the format, so open() only fails on I/O errors: a container
// with a mangled footer or index still opens (index_ok() == false) and can
// be inspected with verify() or salvaged with repack_container(), which
// fall back to a sequential frame scan.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "store/container.h"

namespace cdc::store {

class ContainerReader {
 public:
  /// Loads `path` fully into memory. Returns nullptr (and sets *error)
  /// only when the file cannot be read; any readable file — including one
  /// truncated below the header+footer minimum — opens, with the damage
  /// reported through header_ok()/index_ok() and their diagnostics.
  static std::unique_ptr<ContainerReader> open(const std::string& path,
                                               std::string* error = nullptr);

  /// True when the footer and index parsed and CRC-checked clean.
  [[nodiscard]] bool index_ok() const noexcept { return index_ok_; }
  /// Diagnostic when index_ok() is false; empty otherwise.
  [[nodiscard]] const std::string& index_error() const noexcept {
    return index_error_;
  }
  [[nodiscard]] bool header_ok() const noexcept { return header_ok_; }
  [[nodiscard]] const std::string& header_error() const noexcept {
    return header_error_;
  }

  /// Streams recorded in the index (index order). When the index is
  /// damaged, falls back to the streams found by a sequential scan.
  [[nodiscard]] std::vector<runtime::StreamKey> keys() const;

  [[nodiscard]] const StreamIndexEntry* find(
      const runtime::StreamKey& key) const;

  /// Concatenated payloads of one stream in sequence order. Trusted read
  /// path: aborts with a CDC_CHECK error on CRC mismatch — replay must
  /// never consume silently corrupt data. Requires index_ok().
  [[nodiscard]] std::vector<std::uint8_t> read_stream(
      const runtime::StreamKey& key) const;
  /// What read_stream() would return the size of for every indexed
  /// stream, under the same checks, copying nothing.
  [[nodiscard]] std::map<runtime::StreamKey, std::uint64_t>
  stream_payload_bytes() const;

  /// True when the container carries an epoch-index section (new-format
  /// containers whose appenders supplied EpochMeta). Old containers simply
  /// lack it — absence is not damage.
  [[nodiscard]] bool epoch_index_present() const noexcept {
    return epoch_present_;
  }
  /// True when the epoch section parsed, CRC-checked, and cross-validated
  /// against the stream index. False either because the section is absent
  /// or because it is damaged (see epoch_index_error()); both degrade
  /// windowed reads to a sequential fallback, never to wrong bytes.
  [[nodiscard]] bool epoch_index_ok() const noexcept { return epoch_ok_; }
  [[nodiscard]] const std::string& epoch_index_error() const noexcept {
    return epoch_error_;
  }

  /// The epoch index of one stream, or nullptr when the stream has none
  /// (absent/damaged section, or the stream's frames lacked metadata).
  [[nodiscard]] const StreamEpochIndex* find_epochs(
      const runtime::StreamKey& key) const;

  /// Result of a windowed stream read.
  struct WindowRead {
    std::vector<std::uint8_t> bytes;  ///< concatenated frame payloads
    std::uint64_t first_epoch = 0;    ///< epoch of the first returned frame
    bool seeked = false;  ///< epoch index served the window (O(window) I/O)
  };

  /// Payload bytes of epochs [epoch_lo, epoch_hi) of one stream, seeking
  /// via the epoch index. When the index cannot serve the stream, falls
  /// back to the whole stream (first_epoch = 0, seeked = false) and bumps
  /// store.container.epoch_fallbacks — the caller decodes sequentially
  /// from the start instead of getting wrong bytes. Same trust contract as
  /// read_stream: requires index_ok(), aborts on frame CRC mismatch.
  [[nodiscard]] WindowRead read_stream_window(const runtime::StreamKey& key,
                                              std::uint64_t epoch_lo,
                                              std::uint64_t epoch_hi) const;

  /// Full verification sweep: header, every frame (parse + CRC), index
  /// CRC, footer, and index/data cross-checks. Every byte of the file is
  /// covered by at least one check, so any single-byte corruption is
  /// reported, with the offending stream and frame identified when the
  /// index allows it.
  [[nodiscard]] VerifyReport verify() const;

  /// One intact frame, in file order (spans alias the reader's buffer).
  struct GoodFrame {
    std::uint64_t offset = 0;
    runtime::StreamKey key;
    std::uint64_t seq = 0;
    std::span<const std::uint8_t> payload;
    std::uint64_t frame_size = 0;  ///< bytes including magic and crc
  };

  /// What the container lists, decided once for repack_container and
  /// tool::inspect_gaps.
  struct Listing {
    /// Every frame that parses and CRC-checks, in file order — the input
    /// of replayable_frames().
    std::vector<GoodFrame> good;
    /// Frames per stream: the index entry when the index is intact; else
    /// every frame the sequential scan parsed, a CRC-bad one included
    /// (its header still names the stream).
    std::map<runtime::StreamKey, std::uint64_t> listed;
    /// verify()'s diagnostic when the sequential scan stopped at a frame
    /// it could not parse, so the bytes past it were never scanned; empty
    /// when the index is intact or the scan reached the end of the data.
    std::string scan_stop;
  };
  /// Uses the index to skip past damaged frames; without an index the
  /// scan skips a frame whose CRC fails and stops at the first frame that
  /// does not parse.
  [[nodiscard]] Listing list_frames() const;
  [[nodiscard]] std::vector<GoodFrame> scan_good_frames() const {
    return list_frames().good;
  }

  [[nodiscard]] std::uint64_t file_bytes() const noexcept {
    return bytes_.size();
  }
  /// First byte past the frame data region (= start of the index when the
  /// footer parsed). The crash-sweep truncates here to model a recorder
  /// that died after its last frame but before seal().
  [[nodiscard]] std::uint64_t data_end() const noexcept { return data_end_; }

 private:
  ContainerReader() = default;
  void parse_footer_and_index();
  /// With the footer torn: when the frames scanned from the header stop
  /// at the container's own trailing sections, ends the data region there.
  void end_data_before_trailing_sections();
  /// Parses and validates the optional epoch section ending at `index_at`;
  /// adjusts data_end_ either way (best effort on damage).
  void parse_epoch_section(std::size_t index_at);
  /// Takes an intact epoch section as the epoch index when it agrees with
  /// `frames_of(key)`, each stream's frame offsets; else sets epoch_error_.
  template <typename FramesOf>
  void adopt_epoch_index(std::span<const std::uint8_t> bytes,
                         FramesOf frames_of);
  /// The trusted frame loop: hands visit() the payloads of frames [lo, hi)
  /// of `entry`'s stream; aborts on a damaged or foreign frame.
  template <typename Visit>
  void visit_payloads(const StreamIndexEntry& entry, std::uint64_t lo,
                      std::uint64_t hi, Visit visit) const;
  [[nodiscard]] ParsedFrame parse_frame_at(std::uint64_t offset,
                                           std::uint64_t limit) const;
  [[nodiscard]] std::vector<std::uint64_t> sorted_index_offsets() const;
  /// The index-less walk from the header: calls visit(offset, frame) for
  /// every frame that parses and returns the scan_stop diagnostic.
  template <typename Visit>
  std::string scan_sequential(Visit visit) const;

  std::vector<std::uint8_t> bytes_;
  bool header_ok_ = false;
  std::string header_error_;
  bool index_ok_ = false;
  std::string index_error_;
  std::map<runtime::StreamKey, StreamIndexEntry> index_;
  bool epoch_present_ = false;
  bool epoch_ok_ = false;
  std::string epoch_error_;
  std::map<runtime::StreamKey, StreamEpochIndex> epochs_;
  /// First byte past the data region; 0 when unknown (the scan then runs
  /// to the end of the file).
  std::uint64_t data_end_ = 0;
};

/// The salvage rule: which of `good` (scan_good_frames(), file order) a
/// replay can still use. Replay consumes a stream one chunk at a time, so
/// each stream keeps its frames seq 0, 1, ..., k-1 and is cut at its first
/// missing or damaged frame — and at its first quarantined position when
/// `first_quarantined` names the stream (the `.cdcq` sidecar's stream
/// position, store/resilient.h). repack_container writes exactly these
/// frames; tool::inspect_gaps reports them and tool::load_degraded loads
/// them.
[[nodiscard]] std::vector<ContainerReader::GoodFrame> replayable_frames(
    const std::vector<ContainerReader::GoodFrame>& good,
    const std::map<runtime::StreamKey, std::uint64_t>& first_quarantined =
        {});

/// Rewrites `in_path` as a fresh, compacted container at `out_path` that
/// holds exactly the source's replayable_frames(), in file order. Kept
/// frames keep their sequence numbers and, when the source's epoch index
/// is intact, their epoch records, so a clean container repacks
/// byte-identical. Rebuilds the index from scratch, so it also repairs
/// containers with a broken or missing footer.
struct RepackResult {
  bool ok = false;  ///< input was readable and output sealed
  std::uint64_t frames_kept = 0;
  std::uint64_t frames_dropped = 0;  ///< listed frames not kept
  std::string scan_stop;  ///< the source's Listing::scan_stop
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::string error;
};
RepackResult repack_container(const std::string& in_path,
                              const std::string& out_path);

}  // namespace cdc::store
