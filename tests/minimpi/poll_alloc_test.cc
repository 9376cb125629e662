// The simulator's allocation budget (DESIGN.md §15): a steady-state
// matching-function poll allocates nothing — the request slab, the rank's
// request-id list, the channel tables and the per-worker poll scratch all
// keep their capacity — and a message of up to 40 bytes is sent, parked,
// matched and delivered without a heap block; only the application's
// completions vector is new per delivering call. This binary replaces the
// global operator new with a counting one, so it stays out of the other
// suites' binaries.
#include <gtest/gtest.h>

#include <array>
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

TEST(PollAllocations, NonMatchingTestAndTestsomeAllocateNothing) {
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
  // The request ids go into a list the rank reuses (Comm::make_mf), and
  // the 16 selected indices fit SelectResult's inline room.
  EXPECT_EQ(*test_allocs, 0u);
  EXPECT_EQ(*testsome_allocs, 0u);
}

TEST(PollAllocations, FortyByteMessagesAllocateOnlyTheirCompletions) {
  // Rank 0 sends a burst of kMessages 40-byte messages; rank 1 receives
  // them one wait at a time. The first round grows every table to the
  // burst (1,000 entries stay inside the power-of-two capacities that
  // round leaves, whatever the noise); the second is counted: the sends
  // allocate nothing, and the parking, arrivals, matches and deliveries
  // allocate at most one block per delivering call — its completions
  // vector, which the application owns.
  constexpr int kMessages = 1000;
  using Bytes40 = std::array<std::uint8_t, 40>;
  Simulator::Config config;
  config.num_ranks = 2;
  Simulator sim(config);
  auto send_allocs = std::make_shared<std::uint64_t>(0);
  auto receive_allocs = std::make_shared<std::uint64_t>(0);
  auto received = std::make_shared<int>(0);
  sim.set_program(0, [=](Comm& comm) -> Task {
    for (int round = 0; round < 2; ++round) {
      co_await comm.barrier();
      AllocationCount count;
      if (round == 1) count.begin();
      for (int i = 0; i < kMessages; ++i) {
        Bytes40 bytes{};
        bytes[0] = static_cast<std::uint8_t>(i);
        comm.isend(1, 5, to_payload(bytes));
      }
      if (round == 1) *send_allocs = count.end();
    }
  });
  sim.set_program(1, [=](Comm& comm) -> Task {
    for (int round = 0; round < 2; ++round) {
      co_await comm.barrier();
      // Start counting after rank 0's burst, before its first arrival.
      co_await comm.compute(Simulator::Config::base_latency / 2);
      AllocationCount count;
      if (round == 1) count.begin();
      for (int i = 0; i < kMessages; ++i) {
        const MFResult result = co_await comm.wait(comm.irecv(0, 5));
        if (result.completions.size() == 1 &&
            from_payload<Bytes40>(result.completions[0].payload)[0] ==
                static_cast<std::uint8_t>(i))
          ++*received;
      }
      if (round == 1) *receive_allocs = count.end();
    }
  });
  const auto stats = sim.run();

  EXPECT_EQ(*received, 2 * kMessages);
  EXPECT_EQ(stats.messages_sent, 2u * kMessages);
  EXPECT_EQ(*send_allocs, 0u);
  EXPECT_LE(*receive_allocs, static_cast<std::uint64_t>(kMessages));
}

}  // namespace
}  // namespace cdc::minimpi
