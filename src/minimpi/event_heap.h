// Reserve-ahead binary min-heap for simulator event queues.
//
// std::priority_queue owns its vector and gives it up only by
// destruction, so every epoch of a windowed run pays the allocation of a
// fresh backing store, and displacement-heavy phases (MF re-polls pushing
// while deliveries pop) churn the allocator. This heap keeps one backing
// vector for its whole lifetime: clear() drops the elements but keeps the
// capacity, reserve() pre-sizes it ahead of a known burst, and pop()
// returns the element by move instead of top()/pop() copy-then-drop. With
// a comparator that is a strict total order (every simulator event key is
// unique), the pop sequence is fully determined by the key order — the
// heap's internal layout never shows through, which is what keeps each
// rank's schedule independent of the worker count. Allocation-free steady
// state after warm-up.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace cdc::minimpi {

/// `Before(a, b)` returns true when `a` must pop before `b` (a strict
/// weak order; a strict *total* order makes pops deterministic).
template <typename T, typename Before>
class EventHeap {
 public:
  EventHeap() = default;
  explicit EventHeap(Before before) : before_(std::move(before)) {}

  [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.capacity();
  }

  void reserve(std::size_t n) { slots_.reserve(n); }

  /// Drops every element but keeps the backing vector's capacity — the
  /// cross-epoch reuse this type exists for.
  void clear() noexcept { slots_.clear(); }

  [[nodiscard]] const T& top() const noexcept { return slots_.front(); }

  void push(T value) {
    slots_.push_back(std::move(value));
    sift_up(slots_.size() - 1);
  }

  /// Removes and returns the front element by move.
  T pop() {
    T out = std::move(slots_.front());
    if (slots_.size() > 1) {
      slots_.front() = std::move(slots_.back());
      slots_.pop_back();
      sift_down(0);
    } else {
      slots_.pop_back();
    }
    return out;
  }

 private:
  void sift_up(std::size_t i) noexcept {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before_(slots_[i], slots_[parent])) break;
      std::swap(slots_[i], slots_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) noexcept {
    const std::size_t n = slots_.size();
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      std::size_t best = left;
      const std::size_t right = left + 1;
      if (right < n && before_(slots_[right], slots_[left])) best = right;
      if (!before_(slots_[best], slots_[i])) break;
      std::swap(slots_[i], slots_[best]);
      i = best;
    }
  }

  std::vector<T> slots_;
  Before before_;
};

}  // namespace cdc::minimpi
