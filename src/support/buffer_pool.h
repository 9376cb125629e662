// A small freelist of byte buffers so a hot path can recycle vector
// capacity instead of reallocating per chunk. Thread-safe; the mutex
// guards a pointer swap and is never held across user work. Stats are
// plain counters the owning layer can mirror into obs metrics (support
// stays free of the obs dependency). No layer calls it at present
// (DESIGN.md §10).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace cdc::support {

class BufferPool {
 public:
  struct Stats {
    std::uint64_t hits = 0;            ///< acquires served from the pool
    std::uint64_t misses = 0;          ///< acquires that started fresh
    std::uint64_t recycled_bytes = 0;  ///< capacity handed back out on hits
    std::uint64_t dropped = 0;         ///< releases refused (pool full)
  };

  /// `max_buffers` bounds retained capacity; extra releases are dropped.
  explicit BufferPool(std::size_t max_buffers = 16)
      : max_buffers_(max_buffers) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pops a recycled buffer into `out` (cleared, capacity kept). Returns
  /// true on a pool hit; on a miss `out` is left empty.
  bool acquire(std::vector<std::uint8_t>& out) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        out = std::move(free_.back());
        free_.pop_back();
        hits_.fetch_add(1, std::memory_order_relaxed);
        recycled_bytes_.fetch_add(out.capacity(),
                                  std::memory_order_relaxed);
        return true;
      }
    }
    out.clear();
    out.shrink_to_fit();
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Returns a buffer's capacity to the pool (contents discarded).
  void release(std::vector<std::uint8_t> buf) {
    buf.clear();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (free_.size() < max_buffers_) {
      free_.push_back(std::move(buf));
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] Stats stats() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.recycled_bytes = recycled_bytes_.load(std::memory_order_relaxed);
    s.dropped = dropped_.load(std::memory_order_relaxed);
    return s;
  }

  [[nodiscard]] std::size_t idle_buffers() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return free_.size();
  }

 private:
  const std::size_t max_buffers_;
  mutable std::mutex mutex_;
  std::vector<std::vector<std::uint8_t>> free_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> recycled_bytes_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace cdc::support
