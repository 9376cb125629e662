// Bounded multi-producer/multi-consumer job queue.
//
// This queue carries coarse jobs (whole ingest batches, each many frames
// to encode) from cdc_served's event thread to a session worker, so a
// mutex + condvar design is the right trade: microseconds of lock cost
// against milliseconds of DEFLATE per job. Producers never block — a full
// queue rejects try_push and the producer applies back-pressure itself —
// while consumers block in pop(), and close() gives orderly worker
// shutdown.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "support/check.h"

namespace cdc::store {

template <typename T>
class BoundedMpmcQueue {
 public:
  explicit BoundedMpmcQueue(std::size_t capacity) : capacity_(capacity) {
    CDC_CHECK_MSG(capacity >= 1, "queue capacity must be positive");
  }

  BoundedMpmcQueue(const BoundedMpmcQueue&) = delete;
  BoundedMpmcQueue& operator=(const BoundedMpmcQueue&) = delete;

  /// Non-blocking push: false when the queue is full *or* closed, without
  /// waiting. The event-loop seam — a poll-driven producer that must never
  /// block uses try_push and treats false-on-full as back-pressure
  /// (suspend the source, retry later) and false-on-closed as shutdown.
  /// Takes the value by rvalue reference so a rejected item is left
  /// intact in the caller's hands (parked for retry); it is moved from
  /// only on success.
  bool try_push(T&& value) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty. Returns false once the queue is
  /// closed AND drained — the worker-pool termination signal.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// Closes the queue. The contract consumers and adversarial
  /// disconnect paths rely on (tested in mpmc_queue_test.cc):
  ///   * every try_push() after close() is rejected (returns
  ///     false) — nothing enqueues into a closed queue, so a producer
  ///     racing a disconnect cannot resurrect a torn-down session;
  ///   * the backlog stays poppable: pop() keeps returning true until the
  ///     items enqueued before close() are drained (close is a seal, not
  ///     a discard);
  ///   * each popper blocked at close() time wakes exactly once — it
  ///     either wins a backlog item (true) or observes closed-and-empty
  ///     (false) and must not re-wait; a popper arriving after the drain
  ///     returns false immediately.
  /// Idempotent.
  void close() {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace cdc::store
