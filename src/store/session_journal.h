// Crash-durable sidecar journal for a resumable ingest session.
//
// Lives next to the container it describes (`<record>.cdcc.cdcj`) and
// records, per acknowledged batch, the durable high-water mark of the
// session: the batch sequence number, the session's frame/raw-byte totals,
// the container's byte length at that point, and the per-frame epoch
// metadata that exists only in the writer's memory (frame bytes on disk
// carry no matched/unmatched counts — see ContainerWriter::resume). The
// server appends one entry after the container bytes of a batch are
// flushed and BEFORE the PUT_ACK goes out, so after any crash the
// journal's last valid entry never promises more than the container
// actually holds.
//
// Layout: 8-byte magic "CDCJRNL1", then length-prefixed CRC'd blocks:
//
//   varint block_len | block bytes | u32 crc32(block)
//
// Block 0 is the header (u8 version | sized tenant | sized record |
// u8 level); every later block is a batch entry (varint seq |
// varint frames_total | varint raw_bytes_total | varint container_bytes |
// varint frames_in_batch | per frame: u8 epoch flag [varint matched,
// varint unmatched]). The reader takes the longest valid prefix: a torn
// final block — the normal result of dying mid-append — just drops that
// batch back below the durability line. Writes go through a POSIX fd so
// fsync() is a real barrier, not an ofstream flush.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "store/container_writer.h"

namespace cdc::store {

/// Everything a crashed session's journal can prove about its progress.
struct JournalState {
  std::string tenant;
  std::string record;
  std::uint8_t level = 0;
  std::uint64_t last_seq = 0;          ///< highest durable batch seq (0 = none)
  std::uint64_t frames_total = 0;      ///< session frame count at last_seq
  std::uint64_t raw_bytes_total = 0;   ///< session raw payload bytes at last_seq
  std::uint64_t container_bytes = 0;   ///< container length at last_seq
  std::uint64_t entries = 0;           ///< valid batch entries parsed
  /// Epoch metadata of every durable frame, in container append order —
  /// the `metas` input of ContainerWriter::resume.
  std::vector<std::optional<runtime::EpochMeta>> metas;
};

/// Parses the longest valid prefix of the journal at `path`. Returns
/// nullopt when the file is missing, the magic is wrong, or the header
/// block does not validate — a journal with a good header and zero valid
/// entries is a real (empty-progress) state, not a failure.
[[nodiscard]] std::optional<JournalState> read_session_journal(
    const std::string& path);

/// Append side. One instance per live resumable session; every
/// append_batch() is write-then-fsync, so a true return means the entry
/// survives power loss.
class SessionJournal {
 public:
  /// Creates (truncating) the journal and fsyncs the header block.
  [[nodiscard]] static std::unique_ptr<SessionJournal> create(
      const std::string& path, const std::string& tenant,
      const std::string& record, std::uint8_t level);

  /// Reopens an existing journal for further appends (after the caller
  /// validated it via read_session_journal). Nullptr when the file cannot
  /// be opened.
  [[nodiscard]] static std::unique_ptr<SessionJournal> open_append(
      const std::string& path);

  ~SessionJournal();
  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  /// Journals one durably-flushed batch; false on write/fsync failure.
  [[nodiscard]] bool append_batch(
      std::uint64_t seq,
      std::span<const std::optional<runtime::EpochMeta>> frames,
      std::uint64_t frames_total, std::uint64_t raw_bytes_total,
      std::uint64_t container_bytes);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  SessionJournal(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
};

/// The sidecar path for a container: `<container path>.cdcj`.
[[nodiscard]] inline std::string session_journal_path(
    const std::string& container_path) {
  return container_path + ".cdcj";
}

}  // namespace cdc::store
