// Low-overhead metrics: counters, gauges, and log-bucketed histograms
// behind a process-global registry.
//
// Hot-path contract: one record is a relaxed atomic add into a per-thread
// shard (thread_index() masked down to kMetricShards cache-line-padded
// slots), so the simulator's worker threads and cdc_served's session
// workers can all hammer the same metric without a shared cache line.
// Values are merged only at snapshot time. When the layer is
// runtime-disabled every record call is a relaxed load + branch;
// built with -DCDC_OBS_DISABLED the calls compile away entirely.
//
// Handles returned by the registry are valid for the process lifetime —
// cache them in a function-local static:
//   static obs::Counter& frames = obs::counter("store.container.frames");
//   frames.add(1);
//
// Naming scheme (DESIGN.md §8): dot-separated `<layer>.<object>.<what>`,
// with units as a final suffix where they are not obvious (`_ns`, `_us`,
// `_bytes`). Layers in use: sim, record, replay, store, tool, bench.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace cdc::obs {

class JsonWriter;

inline constexpr std::size_t kMetricShards = 16;  // power of two

namespace detail {

struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> value{0};
};

struct alignas(64) GaugeShard {
  std::atomic<std::int64_t> value{0};
};

/// One thread-shard of a histogram: count/sum/min/max plus 64 log2
/// buckets (bucket index = bit_width(value); zeros land in bucket 0).
struct alignas(64) HistogramShard {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> min{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max{0};
  std::array<std::atomic<std::uint64_t>, 65> buckets{};
};

inline void atomic_min(std::atomic<std::uint64_t>& slot,
                       std::uint64_t v) noexcept {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<std::uint64_t>& slot,
                       std::uint64_t v) noexcept {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonic event/byte counter.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void add(std::uint64_t delta = 1) noexcept {
#ifndef CDC_OBS_DISABLED
    if (!enabled()) return;
    shards_[thread_index() & (kMetricShards - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& shard : shards_)
      total += shard.value.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (auto& shard : shards_)
      shard.value.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::array<detail::CounterShard, kMetricShards> shards_;
};

/// Signed up/down value (queue depths, in-flight counts). The reported
/// value is the sum over shards, so concurrent +1/-1 pairs from different
/// threads cancel exactly.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void add(std::int64_t delta) noexcept {
#ifndef CDC_OBS_DISABLED
    if (!enabled()) return;
    shards_[thread_index() & (kMetricShards - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  void sub(std::int64_t delta) noexcept { add(-delta); }

  [[nodiscard]] std::int64_t value() const noexcept {
    std::int64_t total = 0;
    for (const auto& shard : shards_)
      total += shard.value.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (auto& shard : shards_)
      shard.value.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::array<detail::GaugeShard, kMetricShards> shards_;
};

/// Merged view of one histogram at snapshot time.
struct HistogramValue {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  /// buckets[b] counts values with bit_width(v) == b (b = 0 holds zeros).
  std::array<std::uint64_t, 65> buckets{};

  [[nodiscard]] double mean() const noexcept {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
  /// Approximate quantile from the log2 buckets: linear interpolation
  /// inside the winning bucket. p in [0, 1].
  [[nodiscard]] double quantile(double p) const noexcept;
};

/// Concurrent log2-bucket histogram over unsigned values (ns, bytes,
/// depths). ~2x resolution error at worst, constant-time record.
class Histogram {
 public:
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void record(std::uint64_t v) noexcept {
#ifndef CDC_OBS_DISABLED
    if (!enabled()) return;
    auto& shard = shards_[thread_index() & (kMetricShards - 1)];
    shard.count.fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(v, std::memory_order_relaxed);
    detail::atomic_min(shard.min, v);
    detail::atomic_max(shard.max, v);
    shard.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  [[nodiscard]] HistogramValue merged() const;

  void reset() noexcept {
    for (auto& shard : shards_) {
      shard.count.store(0, std::memory_order_relaxed);
      shard.sum.store(0, std::memory_order_relaxed);
      shard.min.store(~std::uint64_t{0}, std::memory_order_relaxed);
      shard.max.store(0, std::memory_order_relaxed);
      for (auto& bucket : shard.buckets)
        bucket.store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] static constexpr std::size_t bucket_of(
      std::uint64_t v) noexcept {
    return static_cast<std::size_t>(64 - std::countl_zero(v));
  }
  /// Inclusive value range covered by bucket `b`.
  [[nodiscard]] static constexpr std::uint64_t bucket_lo(
      std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  [[nodiscard]] static constexpr std::uint64_t bucket_hi(
      std::size_t b) noexcept {
    return b == 0 ? 0 : (std::uint64_t{1} << (b - 1)) * 2 - 1;
  }

 private:
  std::string name_;
  std::array<detail::HistogramShard, kMetricShards> shards_;
};

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  std::int64_t value = 0;
};

/// Point-in-time merge of every registered metric, name-sorted.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  [[nodiscard]] const CounterValue* find_counter(std::string_view n) const;
  [[nodiscard]] const GaugeValue* find_gauge(std::string_view n) const;
  [[nodiscard]] const HistogramValue* find_histogram(
      std::string_view n) const;
  /// Counter value by name; `fallback` when absent.
  [[nodiscard]] std::uint64_t counter_or(std::string_view n,
                                         std::uint64_t fallback = 0) const;

  /// Writes the whole snapshot as one JSON object value, each metric keyed
  /// by its name under "counters", "gauges" or "histograms".
  void write_json(JsonWriter& w) const;
};

/// Owns every metric; handles are stable for the registry's lifetime.
/// Registration takes a mutex (do it once, outside hot paths); recording
/// never does.
class Registry {
 public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every value, keeping registrations (bench/test isolation).
  /// Not linearizable against concurrent recorders — quiesce first.
  void reset_values();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

// Process-global convenience accessors (Registry::global()).
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Wall-clock interval helper for stage timings: created started, and
/// `ns()` reads the elapsed nanoseconds. When the obs layer is disabled it
/// never touches the clock, so disabled timing costs one branch.
class Stopwatch {
 public:
  Stopwatch() noexcept
      : start_us_(obs::enabled() ? wall_now_us() : 0.0) {}

  [[nodiscard]] std::uint64_t ns() const noexcept {
    if (!obs::enabled()) return 0;
    const double us = wall_now_us() - start_us_;
    return us > 0.0 ? static_cast<std::uint64_t>(us * 1e3) : 0;
  }

 private:
  double start_us_;
};

}  // namespace cdc::obs
