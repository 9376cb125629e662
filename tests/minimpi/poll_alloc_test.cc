// A steady-state matching-function poll allocates nothing (DESIGN.md §15):
// the request slab, the channel tables and the per-worker poll scratch all
// keep their capacity. This binary replaces the global operator new with a
// counting one, so it stays out of the other suites' binaries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "minimpi/simulator.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never sees free() applied to the result of
// a new-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cdc::minimpi {
namespace {

/// Counts the allocations made between begin() and end().
struct AllocationCount {
  std::uint64_t start = 0;
  void begin() {
    start = g_allocations.load();
    g_counting.store(true);
  }
  std::uint64_t end() {
    g_counting.store(false);
    return g_allocations.load() - start;
  }
};

TEST(PollAllocations, NonMatchingTestAndTestsomeAllocateOnlyTheirRequestList) {
  constexpr int kWarmup = 100;
  constexpr int kCalls = 1000;
  Simulator::Config config;
  config.num_ranks = 2;
  Simulator sim(config);
  auto test_allocs = std::make_shared<std::uint64_t>(0);
  auto testsome_allocs = std::make_shared<std::uint64_t>(0);
  auto matched = std::make_shared<int>(0);
  sim.set_program(0, [=](Comm& comm) -> Task {
    // Rank 1 never sends, so no call below matches anything.
    const Request one = comm.irecv(1, 1);
    std::vector<Request> sixteen;
    for (int i = 0; i < 16; ++i) sixteen.push_back(comm.irecv(1, 2));
    for (int i = 0; i < kWarmup; ++i) {
      *matched += (co_await comm.test(one)).flag;
      *matched += (co_await comm.testsome(sixteen)).flag;
    }
    AllocationCount count;
    count.begin();
    for (int i = 0; i < kCalls; ++i)
      *matched += (co_await comm.test(one)).flag;
    *test_allocs = count.end();
    count.begin();
    for (int i = 0; i < kCalls; ++i)
      *matched += (co_await comm.testsome(sixteen)).flag;
    *testsome_allocs = count.end();
  });
  sim.set_program(1, [](Comm&) -> Task { co_return; });
  const auto stats = sim.run();

  EXPECT_EQ(*matched, 0);
  EXPECT_EQ(stats.unmatched_tests, 2u * (kWarmup + kCalls));
  // The one allocation per call is the awaiter's own copy of the request
  // list (Comm::make_mf); the poll itself allocates nothing.
  EXPECT_LE(*test_allocs, static_cast<std::uint64_t>(kCalls));
  EXPECT_LE(*testsome_allocs, static_cast<std::uint64_t>(kCalls));
}

}  // namespace
}  // namespace cdc::minimpi
