// Parallel chunk-compression service.
//
// Inline, all DEFLATE work runs on whichever thread flushes a chunk (the
// simulator's coordinator under Recorder). This service fans sealed-chunk
// encoding jobs out over a bounded MPMC queue to a worker pool and then
// commits the encoded frames to the RecordStore *in submission order*
// (ticketed two-phase commit), so the byte stream each store key receives
// is bit-identical to the inline path — replay and the Figure 13 size
// accounting cannot tell the difference, only the wall clock can.
//
// Jobs are opaque encode closures rather than raw payloads so the service
// stays codec-agnostic: the tool layer hands it `encode_frame` thunks,
// and the benches hand it synthetic ones.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "compress/deflate.h"
#include "runtime/storage.h"
#include "store/mpmc_queue.h"
#include "support/buffer_pool.h"

namespace cdc::store {

class CompressionService {
 public:
  /// Produces the fully framed bytes to append for one job. Runs on a
  /// worker thread; must be self-contained (owns its input payload).
  using Encoder = std::function<std::vector<std::uint8_t>()>;

  /// Pool-aware encoder: `reuse` donates recycled capacity (contents
  /// discarded) and the returned vector goes back to the pool after the
  /// commit, so steady-state encoding is allocation-free.
  using EncoderInto =
      std::function<std::vector<std::uint8_t>(std::vector<std::uint8_t>)>;

  struct Config {
    std::size_t workers = 2;
    std::size_t queue_capacity = 128;  ///< back-pressure bound, in jobs
    /// Compression level the service's owner stamps onto submitted jobs
    /// (the service itself is codec-agnostic; this is the plumbing knob
    /// recorders and benches read back via level()).
    compress::DeflateLevel level = compress::DeflateLevel::kDefault;
    std::size_t pool_buffers = 16;  ///< output buffers retained for reuse
  };

  explicit CompressionService(runtime::RecordStore* store);
  CompressionService(runtime::RecordStore* store, const Config& config);

  /// Drains outstanding jobs and stops the workers.
  ~CompressionService();

  CompressionService(const CompressionService&) = delete;
  CompressionService& operator=(const CompressionService&) = delete;

  /// Enqueues one encode job for `key`. Blocks when `queue_capacity`
  /// jobs are already outstanding. `raw_size_hint` is the uncompressed
  /// payload size, used only for throughput accounting. `epoch` is the
  /// chunk's epoch metadata, committed via RecordStore::append_epoch when
  /// present so epoch-aware stores index the frame.
  void submit(const runtime::StreamKey& key, std::size_t raw_size_hint,
              Encoder encode,
              std::optional<runtime::EpochMeta> epoch = std::nullopt);

  /// Pool-aware variant: the worker hands `encode` a recycled output
  /// buffer and returns the encoded result to the pool after commit.
  void submit(const runtime::StreamKey& key, std::size_t raw_size_hint,
              EncoderInto encode,
              std::optional<runtime::EpochMeta> epoch = std::nullopt);

  [[nodiscard]] compress::DeflateLevel level() const noexcept {
    return level_;
  }

  /// Blocks until every job submitted so far has been committed to the
  /// store. Safe to call repeatedly and to keep submitting afterwards.
  void drain();

  struct Stats {
    std::uint64_t jobs = 0;
    std::uint64_t raw_bytes = 0;      ///< sum of size hints
    std::uint64_t encoded_bytes = 0;  ///< framed bytes committed
    std::size_t workers = 0;
    support::BufferPool::Stats pool;  ///< output-buffer recycling
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Job {
    std::uint64_t ticket = 0;
    runtime::StreamKey key;
    std::size_t raw_size = 0;
    EncoderInto encode;
    std::optional<runtime::EpochMeta> epoch;
  };

  void submit_job(const runtime::StreamKey& key, std::size_t raw_size_hint,
                  EncoderInto encode,
                  std::optional<runtime::EpochMeta> epoch);

  void worker_loop();
  void commit_in_order(const Job& job,
                       const std::vector<std::uint8_t>& encoded);

  runtime::RecordStore* store_;
  BoundedMpmcQueue<Job> queue_;
  const compress::DeflateLevel level_;
  support::BufferPool pool_;

  // Ticketed in-order commit: submit() hands out tickets under
  // submit_mutex_ (so queue order == ticket order), workers encode out of
  // order, commit_in_order admits exactly one worker at a time in ticket
  // order under commit_mutex_. The two mutexes are never held together
  // by the service itself — see submit() for why that matters.
  mutable std::mutex submit_mutex_;
  std::uint64_t next_ticket_ = 0;  ///< next ticket submit() hands out
  std::uint64_t raw_bytes_ = 0;

  mutable std::mutex commit_mutex_;
  std::condition_variable commit_cv_;
  std::uint64_t next_commit_ = 0;  ///< ticket allowed to commit next
  std::uint64_t encoded_bytes_ = 0;

  std::vector<std::jthread> workers_;
};

}  // namespace cdc::store
