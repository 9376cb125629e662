// Record storage backends.
//
// The paper writes per-process record data to node-local storage (SSD or
// ramdisk). Here a record maps a stream key — (MPI rank, MF callsite) — to
// an append-only byte stream. A RecordSink takes appends: storage policies
// wrap one, CountingStore only counts. A RecordStore also serves the record
// back: MemoryStore models ramdisk recording. Size accounting is identical
// across backends, which is what the evaluation measures.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "minimpi/types.h"

namespace cdc::runtime {

struct StreamKey {
  minimpi::Rank rank = 0;
  minimpi::CallsiteId callsite = 0;

  friend auto operator<=>(const StreamKey&, const StreamKey&) = default;
};

/// Per-epoch replay metadata riding along with one appended chunk: how
/// many events the chunk holds. Epoch-aware stores (the container) persist
/// this in a seekable index so windowed replay can slice a stream at epoch
/// boundaries without decoding it from the start; every other store
/// ignores it.
struct EpochMeta {
  std::uint64_t matched = 0;    ///< delivered (gated) events in the epoch
  std::uint64_t unmatched = 0;  ///< recorded unmatched tests in the epoch

  friend bool operator==(const EpochMeta&, const EpochMeta&) = default;
};

/// A recoverable storage I/O failure (EIO, short write, fsync error).
/// Contract: a store that throws this from append()/sync() committed
/// *nothing* of the failed operation — retrying the identical call is
/// safe. Unrecoverable conditions (bad path, permissions) keep the loud
/// CDC_CHECK abort; IoError is reserved for faults worth retrying.
/// Thrown by fault-injecting stores (store/resilient.h) and caught by
/// RetryingStore; the stock backends below never throw it.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class RecordSink {
 public:
  virtual ~RecordSink() = default;

  virtual void append(const StreamKey& key,
                      std::span<const std::uint8_t> bytes) = 0;

  /// append() plus the epoch metadata of the chunk the bytes carry. The
  /// default forwards to append() — only epoch-aware stores (and the
  /// policies in front of them) override. Same contract as append(),
  /// including the IoError nothing-committed guarantee.
  virtual void append_epoch(const StreamKey& key,
                            std::span<const std::uint8_t> bytes,
                            const EpochMeta& /*meta*/) {
    append(key, bytes);
  }

  /// Durability barrier (fsync analogue): on return, every byte appended so
  /// far survives a crash of the writer. May throw IoError on injected
  /// fsync failure. No-op for stores that are already durable per append.
  virtual void sync() {}
};

class RecordStore : public RecordSink {
 public:
  [[nodiscard]] virtual std::vector<std::uint8_t> read(
      const StreamKey& key) const = 0;
  [[nodiscard]] virtual std::vector<StreamKey> keys() const = 0;
  [[nodiscard]] virtual std::uint64_t total_bytes() const = 0;

  /// Bytes attributable to one rank (per-process record size).
  [[nodiscard]] virtual std::uint64_t rank_bytes(minimpi::Rank rank) const = 0;

  /// The frames of epochs [0, epoch_hi) of one stream — a seekable backend
  /// (the epoch-indexed container) serves exactly those bytes without
  /// touching the rest of the stream; the default reads everything, which
  /// is always correct (the replayer stops decoding at its chunk limit).
  [[nodiscard]] virtual std::vector<std::uint8_t> read_prefix(
      const StreamKey& key, std::uint64_t /*epoch_hi*/) const {
    return read(key);
  }
};

/// Ramdisk-style in-memory store. Thread-safe: one mutex guards every
/// stream (a writer and readers may touch it concurrently). keys() is
/// sorted.
class MemoryStore final : public RecordStore {
 public:
  void append(const StreamKey& key,
              std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] std::vector<std::uint8_t> read(
      const StreamKey& key) const override;
  [[nodiscard]] std::vector<StreamKey> keys() const override;
  [[nodiscard]] std::uint64_t total_bytes() const override;
  [[nodiscard]] std::uint64_t rank_bytes(minimpi::Rank rank) const override;

 private:
  mutable std::mutex mutex_;
  std::map<StreamKey, std::vector<std::uint8_t>> streams_;
};

/// Size-accounting-only sink for compression benchmarks at scale: bytes
/// are counted and discarded.
class CountingStore final : public RecordSink {
 public:
  void append(const StreamKey& key,
              std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] std::vector<StreamKey> keys() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  [[nodiscard]] std::uint64_t rank_bytes(minimpi::Rank rank) const;

 private:
  mutable std::mutex mutex_;
  std::map<StreamKey, std::uint64_t> sizes_;
};

}  // namespace cdc::runtime
