// RecordStore over a record container on disk.
//
// Recording mode (constructor): every append is persisted as one
// CRC-protected container frame, and the writer's index answers keys()
// and the sizes. seal() finishes the container; after that the file is a
// self-contained, verifiable record of the run.
//
// Replay mode (open()): serves reads from the sealed file's bytes, which
// its ContainerReader holds. A store opened this way is read-only; appends
// are a caller bug, as are reads from a recording store.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "store/container_reader.h"
#include "store/container_writer.h"
#include "runtime/storage.h"

namespace cdc::store {

class ContainerStore final : public runtime::RecordStore {
 public:
  /// Recording mode: creates (truncating) the container at `path`.
  explicit ContainerStore(std::string path);

  /// Replay mode: loads a sealed container, verifying every frame's CRC.
  /// Aborts with a CDC_CHECK error on unreadable or corrupt input (use the
  /// verify/repack tooling for forensics on damaged containers).
  static std::unique_ptr<ContainerStore> open(const std::string& path);

  /// Recording mode over an unsealed container left behind by a crash:
  /// validates + reopens the durable prefix via ContainerWriter::resume
  /// (truncating any torn tail), so appends, the sizes and a later seal()
  /// behave as if the store had lived through a single life. Returns
  /// nullptr (and sets *error) when the prefix does not validate against
  /// `metas`.
  [[nodiscard]] static std::unique_ptr<ContainerStore> resume(
      const std::string& path, std::uint64_t durable_bytes,
      std::span<const std::optional<runtime::EpochMeta>> metas,
      std::string* error);

  void append(const runtime::StreamKey& key,
              std::span<const std::uint8_t> bytes) override;
  /// append() plus the chunk's epoch metadata, persisted in the
  /// container's epoch index for windowed (random-access) replay.
  void append_epoch(const runtime::StreamKey& key,
                    std::span<const std::uint8_t> bytes,
                    const runtime::EpochMeta& meta) override;
  /// Replay mode only; safe from several threads at once.
  [[nodiscard]] std::vector<std::uint8_t> read(
      const runtime::StreamKey& key) const override;
  /// With a healthy epoch index, serves epochs [0, epoch_hi) by seeking
  /// the container — O(window) bytes read and decoded instead of
  /// O(stream). Falls back to read() otherwise (no index, or a damaged
  /// one — the `store.container.epoch_fallbacks` counter).
  [[nodiscard]] std::vector<std::uint8_t> read_prefix(
      const runtime::StreamKey& key, std::uint64_t epoch_hi) const override;
  [[nodiscard]] std::vector<runtime::StreamKey> keys() const override;
  [[nodiscard]] std::uint64_t total_bytes() const override;
  [[nodiscard]] std::uint64_t rank_bytes(minimpi::Rank rank) const override;

  /// Durability barrier: flushes the container file so frames appended so
  /// far survive a recorder crash (epoch checkpoints). No-op in replay
  /// mode or once sealed.
  void sync() override;

  /// Finishes the container (index + footer). Idempotent; recording mode
  /// only. The destructor seals too, so this is for callers that want to
  /// reopen the file while the store is still alive.
  void seal();

  /// Simulates a recorder crash: closes the container file WITHOUT an
  /// index/footer (ContainerWriter::abandon). The file then refuses
  /// open() — as a real half-written container would — until it has been
  /// salvaged via repack_container(). Recording mode only; idempotent.
  void abandon();

  /// Bytes written to the container file so far (header + whole frames;
  /// recording mode only — 0 in replay mode). After sync() this is the
  /// durable prefix length a resume journal records.
  [[nodiscard]] std::uint64_t writer_file_bytes() const;

  /// The underlying container reader — non-null only in replay mode. The
  /// seam for windowed replay: epoch index lookups and
  /// read_stream_window() seeks without re-opening the file.
  [[nodiscard]] const ContainerReader* reader() const noexcept {
    return reader_.get();
  }

 private:
  ContainerStore() = default;

  /// Payload bytes per stream: the writer's index while recording.
  [[nodiscard]] std::map<runtime::StreamKey, std::uint64_t> stream_bytes()
      const;
  const ContainerReader& replay_reader() const;

  std::unique_ptr<ContainerWriter> writer_;  ///< null in replay mode
  std::unique_ptr<ContainerReader> reader_;  ///< null in recording mode
  /// Replay mode: payload bytes per stream, added up by open().
  std::map<runtime::StreamKey, std::uint64_t> opened_bytes_;
};

}  // namespace cdc::store
