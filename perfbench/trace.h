// Span tracing for the benchmark's traced run.
//
// Each thread keeps a stack of open spans (name, start, parent = the span
// below it). Closing a span charges its duration to its parent's child
// time, so a span's self time is its duration minus the part its nested
// child spans cover. Totals are kept per thread — the parallel executor
// calls the tool hooks from several workers at once — and merged by
// collect() once those workers have been joined.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace rrbench::trace {

/// Every span the decorators and rrbench's passes record. A name lives in
/// span_name(); the layer prefix matches the metric names.
enum class Span : std::uint8_t {
  kRecordOnSend,
  kRecordSelect,
  kRecordUnmatchedTest,
  kRecordDeliverBuffer,  ///< on_deliver calls with no nested sink submit
  kRecordDeliverFlush,   ///< on_deliver calls that flushed a chunk
  kRecordOnWindow,
  kRecordFinalize,
  kReplayOnSend,
  kReplaySelect,
  kReplayUnmatchedTest,
  kReplayDeliver,
  kSinkSubmit,  ///< frame encode (DEFLATE + framing) plus its store append
  kStoreAppend,
  kStoreSync,
  kStoreRead,
  kStoreSeal,
  kStoreOpen,
  kCount,
};

/// Counts taken at the same boundaries as the spans.
enum class Count : std::uint8_t {
  kRecordDelivered,  ///< completions handed to the recorder's on_deliver
  kReplayDelivered,
  kRecordBlocked,    ///< select calls answered kBlock
  kReplayBlocked,
  kDeflateInBytes,   ///< raw chunk bytes submitted to the frame sink
  kAppendBytes,      ///< encoded frame bytes appended to the store
  kCount,
};

inline constexpr std::size_t kSpans = static_cast<std::size_t>(Span::kCount);
inline constexpr std::size_t kCounts = static_cast<std::size_t>(Count::kCount);

struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t total_ns = 0;
};

struct Totals {
  std::array<SpanTotals, kSpans> spans{};
  std::array<std::uint64_t, kCounts> counts{};

  [[nodiscard]] const SpanTotals& operator[](Span s) const {
    return spans[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t operator[](Count c) const {
    return counts[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double self_s(Span s) const {
    return static_cast<double>((*this)[s].self_ns) * 1e-9;
  }
  /// Sum of every span's self time: the wall time the traced layers own.
  [[nodiscard]] double attributed_s() const;
};

/// Opens a span on construction and closes it on destruction. An inactive
/// span costs one branch and records nothing. With `if_children` set, the
/// span is charged to that name instead when a child span closed inside it.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span name, bool active = true) noexcept
      : ScopedSpan(name, name, active) {}
  ScopedSpan(Span name, Span if_children, bool active = true) noexcept;
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
};

void add(Count count, std::uint64_t n) noexcept;

/// Zeroes every thread's totals. Call only while no other thread is inside
/// a span (between passes).
void reset();

/// Merges every thread's totals. Call only after the threads that recorded
/// them have been joined or have quiesced.
Totals collect();

}  // namespace rrbench::trace
