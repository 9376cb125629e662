// The record corpus: one container file holding many recorded runs
// ("members") of the same application family, stored at a fraction of
// their independent size.
//
// The paper makes one record small by encoding it as a difference from a
// predictable reference (the Lamport clock order); the corpus applies the
// same move across records. Every family (app, config) elects a reference
// member — first write wins unless a later member is explicitly pinned —
// and each member stream is stored as whichever of these is smallest:
//
//   * one correcting delta (corpus/delta.h) against the reference
//     member's same stream, deflate-compressed;
//   * self-compressed gzip;
//   * raw bytes, when neither pays (tiny or already-compressed streams).
//
// Everything persists in the existing CDCC container format (one frame
// per member manifest, reserved negative ranks), so flush()/seal()/
// abandon() durability semantics, verify, and the repack_container
// salvage path carry over unchanged.
//
// CorpusStore adapts the ingest side to the runtime::RecordStore
// interface: a Recorder writes into it like any other store, and
// seal_member() commits the buffered record to the corpus.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "corpus/delta.h"
#include "runtime/storage.h"
#include "store/container_reader.h"
#include "store/container_writer.h"

namespace cdc::corpus {

/// Reserved ranks for corpus metadata streams. Real MPI ranks are
/// non-negative; these stay clear of them (and of other reserved users of
/// negative ranks) so corpus containers and record containers share the
/// frame format without ambiguity. -9001 stays unused: older corpora
/// may carry chunk frames there.
inline constexpr std::int32_t kCorpusMetaRank = -9000;   ///< family table
inline constexpr std::int32_t kCorpusMemberRank = -9002; ///< member frames

/// How one member stream is stored: the manifest's per-stream tag. Tags 1
/// (chunk-table ordinals) and 2 (onepass delta) are retired; a manifest
/// carrying one opens with its member unreadable.
enum class MemberEncoding : std::uint8_t {
  kDeltaCorrecting = 3,  ///< deflated correcting delta vs the reference
  kSelfGzip = 4,         ///< independent gzip
  kRaw = 5,              ///< stored bytes
};

[[nodiscard]] std::string_view to_string(MemberEncoding encoding) noexcept;

struct CorpusStats {
  std::uint64_t members = 0;
  std::uint64_t families = 0;
  std::uint64_t streams = 0;
  std::uint64_t raw_bytes = 0;      ///< member payloads before encoding
  std::uint64_t stored_bytes = 0;   ///< frame payload bytes written
  /// Streams stored per encoding, indexed by MemberEncoding value.
  std::uint64_t by_encoding[6] = {0, 0, 0, 0, 0, 0};

  [[nodiscard]] double dedup_ratio() const noexcept {
    return stored_bytes > 0 ? static_cast<double>(raw_bytes) /
                                  static_cast<double>(stored_bytes)
                            : 0.0;
  }
};

/// Write side: builds one corpus container.
class Corpus {
 public:
  /// Creates (truncating) the container at `path`.
  explicit Corpus(std::string path);

  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;

  /// Commits every stream of `record` as one member of `family`.
  /// The family's first member becomes its reference; pass
  /// `pin_reference` to make THIS member the reference for members added
  /// after it (earlier members keep their original reference). Returns
  /// the member's corpus-wide ordinal.
  std::uint32_t add_member(const std::string& family,
                           const std::string& member_name,
                           const runtime::RecordStore& record,
                           bool pin_reference = false);

  /// Durability barrier (ContainerWriter::flush).
  void flush();
  /// Writes the family table and the container index/footer. Idempotent.
  void seal();
  /// Crash simulation: closes without index/footer (salvage required).
  void abandon();

  [[nodiscard]] const CorpusStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& path() const noexcept;

 private:
  struct FamilyState {
    std::uint32_t reference = 0;  ///< member ordinal deltas point at
    std::uint32_t members = 0;
    /// Reference member's raw streams, kept to delta against.
    std::map<runtime::StreamKey, std::vector<std::uint8_t>> ref_streams;
  };

  void write_family_table();

  store::ContainerWriter writer_;
  std::map<std::string, FamilyState> families_;
  std::uint32_t next_member_ = 0;
  CorpusStats stats_;
  bool sealed_ = false;
};

/// RecordStore adapter for ingest: buffers one member in memory, then
/// seal_member() commits it to the corpus. Composes under RetryingStore
/// and the frame sink exactly like the stock stores.
class CorpusStore final : public runtime::RecordStore {
 public:
  CorpusStore(Corpus* corpus, std::string family, std::string member_name,
              bool pin_reference = false);

  void append(const runtime::StreamKey& key,
              std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] std::vector<std::uint8_t> read(
      const runtime::StreamKey& key) const override;
  [[nodiscard]] std::vector<runtime::StreamKey> keys() const override;
  [[nodiscard]] std::uint64_t total_bytes() const override;
  [[nodiscard]] std::uint64_t rank_bytes(minimpi::Rank rank) const override;
  void sync() override;

  /// Commits the buffered member to the corpus and clears the buffer for
  /// the next one. Returns the member ordinal.
  std::uint32_t seal_member();

 private:
  Corpus* corpus_;
  std::string family_;
  std::string member_name_;
  bool pin_reference_;
  /// MemoryStore is immovable (internal mutex), so the buffer is swapped
  /// out wholesale at seal_member().
  std::unique_ptr<runtime::MemoryStore> buffer_;
};

/// Read side: opens a sealed (or salvaged) corpus container.
class CorpusReader {
 public:
  struct Member {
    std::uint32_t ordinal = 0;
    std::string family;
    std::string name;
    bool is_reference = false;
    /// Self-contained members have delta_ref == ordinal; delta members
    /// point at the member their streams are encoded against.
    std::uint32_t delta_ref = 0;
    bool readable = true;   ///< false: salvage lost the reference, or
                            ///< the manifest is unparseable
    std::string damage;     ///< why, when !readable
  };

  /// Opens `path`. Requires a readable index (a crashed container must go
  /// through repack_container first — the salvage contract of the store
  /// layer). Members with a delta stream whose reference member was lost
  /// to salvage, and members whose manifest cannot be parsed, open as
  /// readable == false instead of failing the corpus.
  static std::unique_ptr<CorpusReader> open(const std::string& path,
                                            std::string* error = nullptr);

  [[nodiscard]] const std::vector<Member>& members() const noexcept {
    return members_;
  }
  [[nodiscard]] const Member* member(std::uint32_t ordinal) const;

  /// Stream keys of one member (its record's keys).
  [[nodiscard]] std::vector<runtime::StreamKey> member_keys(
      std::uint32_t ordinal) const;

  /// Reconstructed raw bytes of one member stream, CRC-verified against
  /// the manifest. Delta streams are rebuilt into a fresh buffer from the
  /// cached reference stream. nullopt when the member is unreadable or
  /// reconstruction fails verification.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> read_stream(
      std::uint32_t ordinal, const runtime::StreamKey& key) const;

  /// Materializes a whole member into `out` (a fresh store) for replay.
  [[nodiscard]] bool load_member(std::uint32_t ordinal,
                                 runtime::MemoryStore& out) const;

  [[nodiscard]] const CorpusStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t file_bytes() const noexcept;

 private:
  struct StreamEntry {
    runtime::StreamKey key;
    std::uint64_t raw_len = 0;
    std::uint32_t crc = 0;
    MemberEncoding encoding = MemberEncoding::kRaw;
    std::vector<std::uint8_t> payload;  ///< delta/gzip/raw body
  };
  struct MemberData {
    std::vector<StreamEntry> streams;
  };

  CorpusReader() = default;
  [[nodiscard]] const std::vector<std::uint8_t>* reference_stream(
      std::uint32_t ref_ordinal, const runtime::StreamKey& key) const;

  std::unique_ptr<store::ContainerReader> reader_;
  std::vector<Member> members_;
  std::map<std::uint32_t, MemberData> data_;
  CorpusStats stats_;
  /// Reference streams are reconstructed once and kept: every non-pinned
  /// member of a family deltas against the same one.
  mutable std::map<std::uint32_t,
                   std::map<runtime::StreamKey, std::vector<std::uint8_t>>>
      ref_cache_;
};

}  // namespace cdc::corpus
