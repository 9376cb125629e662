// Append side of the record container (see container.h for the layout).
//
// Thread-safe: concurrent appenders are serialized on one mutex — the file
// is a single append point anyway, and frames arrive here already encoded
// by the frame sink. The in-memory index grows as frames land; seal()
// writes it as the footer.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "store/container.h"

namespace cdc::store {

class ContainerWriter {
 public:
  /// Creates (truncating) `path` and writes the container header. Aborts
  /// with a CDC_CHECK error if the file cannot be created.
  explicit ContainerWriter(std::string path);

  /// Reopens an unsealed container for further appends — the crash-recovery
  /// path. The first `durable_bytes` of the file must be an intact header
  /// plus whole frames (anything beyond is a torn tail and is truncated
  /// away); `metas` supplies the epoch metadata of those frames in append
  /// order (nullopt for a frame appended without it), exactly as a journal
  /// recorded them: the frame bytes on disk do not carry matched/unmatched
  /// counts, which live only in the seal-time epoch index. Returns nullptr
  /// (and sets *error) when the prefix does not validate — a failed resume
  /// leaves the file truncated only if validation already passed, so
  /// callers can still salvage. On success the writer's index, counters, and append offset
  /// are byte-for-byte what the original writer held after its last
  /// durable frame: continuing the append stream and sealing yields a
  /// container identical to one written in a single life.
  [[nodiscard]] static std::unique_ptr<ContainerWriter> resume(
      const std::string& path, std::uint64_t durable_bytes,
      std::span<const std::optional<runtime::EpochMeta>> metas,
      std::string* error);

  /// Seals the container if the caller has not already done so.
  ~ContainerWriter();

  ContainerWriter(const ContainerWriter&) = delete;
  ContainerWriter& operator=(const ContainerWriter&) = delete;

  /// Appends one CRC-protected frame carrying `payload` for `key`.
  void append_frame(const runtime::StreamKey& key,
                    std::span<const std::uint8_t> payload);

  /// append_frame plus the epoch metadata of the chunk the payload holds.
  /// seal() emits an epoch-index entry for a stream only when EVERY one of
  /// its frames carried metadata — a mixed stream has no usable epoch map,
  /// so it degrades to sequential decode rather than a wrong one.
  void append_frame(const runtime::StreamKey& key,
                    std::span<const std::uint8_t> payload,
                    const runtime::EpochMeta& meta);

  /// Durability barrier: pushes every appended frame down to the OS so a
  /// crash of the recorder after this call loses no frame appended before
  /// it (the epoch-checkpoint primitive). No-op once sealed.
  void flush();

  /// Writes the index and footer and closes the file. Idempotent; no
  /// frames may be appended afterwards.
  void seal();

  /// Closes the file WITHOUT writing the index/footer — the on-disk state
  /// a crashed recorder leaves behind (frames up to the crash, no index).
  /// Idempotent; seal() afterwards is a no-op. The result fails
  /// ContainerStore::open() by design and must go through the
  /// verify/repack salvage path.
  void abandon();

  struct Stats {
    std::uint64_t frames = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t file_bytes = 0;  ///< total container size so far
  };
  [[nodiscard]] Stats stats() const;

  /// Payload bytes appended so far per stream, in key order: the sizes
  /// seal() writes to the index. Still answered after seal().
  [[nodiscard]] std::map<runtime::StreamKey, std::uint64_t> stream_bytes()
      const;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  struct IndexEntry {
    std::vector<std::uint64_t> offsets;
    std::uint64_t payload_bytes = 0;
    std::vector<EpochRecord> epochs;  ///< one per frame, when complete
    bool epochs_complete = true;      ///< every frame carried EpochMeta
  };

  struct ResumeTag {};
  /// Shell for resume(): records the path, opens nothing.
  ContainerWriter(ResumeTag, std::string path) : path_(std::move(path)) {}

  void append_frame_locked(const runtime::StreamKey& key,
                           std::span<const std::uint8_t> payload,
                           const runtime::EpochMeta* meta);
  /// Indexes the frame at offset_ and moves past it: the bookkeeping
  /// append_frame and resume share, so a resumed writer seals the index a
  /// single-life writer would.
  void index_frame(const runtime::StreamKey& key, std::uint64_t payload_size,
                   std::uint64_t frame_size, const runtime::EpochMeta* meta);

  std::string path_;
  mutable std::mutex mutex_;
  std::ofstream out_;
  std::uint64_t offset_ = 0;  ///< next frame's file offset
  std::map<runtime::StreamKey, IndexEntry> index_;
  std::uint64_t frames_ = 0;
  std::uint64_t payload_bytes_ = 0;
  bool sealed_ = false;
};

}  // namespace cdc::store
