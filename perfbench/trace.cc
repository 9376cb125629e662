#include "trace.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

namespace rrbench::trace {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Frame {
  Span name;
  Span if_children;
  std::uint64_t start_ns;
  std::uint64_t child_ns = 0;
  bool had_children = false;
};

struct ThreadState {
  Totals totals;
  std::vector<Frame> stack;
};

// Owns every thread's state so totals outlive the worker threads that
// wrote them; a thread finds its own through the thread_local pointer.
std::mutex registry_mu;
std::vector<std::unique_ptr<ThreadState>> registry;

ThreadState& local() {
  thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    auto owned = std::make_unique<ThreadState>();
    owned->stack.reserve(8);
    state = owned.get();
    std::lock_guard<std::mutex> lock(registry_mu);
    registry.push_back(std::move(owned));
  }
  return *state;
}

}  // namespace

double Totals::attributed_s() const {
  std::uint64_t ns = 0;
  for (const SpanTotals& s : spans) ns += s.self_ns;
  return static_cast<double>(ns) * 1e-9;
}

ScopedSpan::ScopedSpan(Span name, Span if_children, bool active) noexcept
    : active_(active) {
  if (active_) local().stack.push_back({name, if_children, now_ns()});
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::uint64_t end = now_ns();
  ThreadState& state = local();
  const Frame frame = state.stack.back();
  state.stack.pop_back();
  const std::uint64_t duration = end - frame.start_ns;
  const Span name = frame.had_children ? frame.if_children : frame.name;
  SpanTotals& totals = state.totals.spans[static_cast<std::size_t>(name)];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  if (!state.stack.empty()) {
    state.stack.back().child_ns += duration;
    state.stack.back().had_children = true;
  }
}

void add(Count count, std::uint64_t n) noexcept {
  local().totals.counts[static_cast<std::size_t>(count)] += n;
}

void reset() {
  std::lock_guard<std::mutex> lock(registry_mu);
  for (auto& state : registry) state->totals = Totals{};
}

Totals collect() {
  Totals merged;
  std::lock_guard<std::mutex> lock(registry_mu);
  for (const auto& state : registry) {
    for (std::size_t i = 0; i < kSpans; ++i) {
      merged.spans[i].calls += state->totals.spans[i].calls;
      merged.spans[i].self_ns += state->totals.spans[i].self_ns;
      merged.spans[i].total_ns += state->totals.spans[i].total_ns;
    }
    for (std::size_t i = 0; i < kCounts; ++i)
      merged.counts[i] += state->totals.counts[i];
  }
  return merged;
}

}  // namespace rrbench::trace
