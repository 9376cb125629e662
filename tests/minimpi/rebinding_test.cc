// Replay-tool request rebinding in the simulator: unbound candidates,
// displacement, and the re-matching that follows (the PMPI-layer remapping
// of interchangeable requests that order-replay tools perform).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "minimpi/simulator.h"

namespace cdc::minimpi {
namespace {

Simulator::Config config(int ranks, std::uint64_t seed = 1) {
  Simulator::Config c;
  c.num_ranks = ranks;
  c.noise_seed = seed;
  return c;
}

/// A tool that releases messages in DESCENDING piggyback order — the
/// opposite of arrival — exercising unbound candidate delivery and
/// displacement of MPI-matched messages.
struct ReverseOrderHooks : ToolHooks {
  std::uint64_t next_clock = 0;
  std::uint64_t expected_high;

  explicit ReverseOrderHooks(std::uint64_t high) : expected_high(high) {}

  std::uint64_t on_send(Rank) override { return next_clock++; }

  SelectResult select(Rank, CallsiteId, MFKind,
                      std::span<const Candidate> candidates,
                      std::size_t, bool blocking) override {
    SelectResult result;
    // Wait until the highest-clock message we still expect is visible,
    // then deliver exactly it (bound or not).
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].piggyback == expected_high) {
        result.action = SelectResult::Action::kDeliver;
        result.indices = {i};
        --expected_high;
        return result;
      }
    }
    result.action = blocking ? SelectResult::Action::kBlock
                             : SelectResult::Action::kNoMatch;
    return result;
  }
};

TEST(Rebinding, ToolDeliversUnexpectedMessagesViaInterchangeableRequests) {
  // Rank 1 posts ONE wildcard recv at a time; rank 0 sends three messages
  // with piggybacks 0,1,2. The tool forces delivery order 2,1,0: message 2
  // sits in the unexpected queue when its turn comes (the single request
  // is MPI-matched to message 0), so delivering it requires rebinding and
  // displacing message 0 back to the unexpected queue.
  ReverseOrderHooks hooks(/*high=*/2);
  Simulator sim(config(2, 3), &hooks);
  auto order = std::make_shared<std::vector<std::uint64_t>>();

  sim.set_program(0, [](Comm& comm) -> Task {
    for (int i = 0; i < 3; ++i) {
      comm.isend(1, 1, std::vector<std::uint8_t>{static_cast<std::uint8_t>(i)});
      co_await comm.compute(1e-6);  // spread the sends out
    }
  });
  sim.set_program(1, [order](Comm& comm) -> Task {
    for (int i = 0; i < 3; ++i) {
      Request r = comm.irecv(kAnySource, 1);
      auto res = co_await comm.wait(r);
      order->push_back(res.completions[0].piggyback);
      EXPECT_EQ(res.completions[0].payload[0],
                static_cast<std::uint8_t>(res.completions[0].piggyback));
    }
  });
  sim.run();
  EXPECT_EQ(*order, (std::vector<std::uint64_t>{2, 1, 0}));
}

TEST(Rebinding, DisplacedMessagesRematchLaterRequests) {
  // After displacement, the remaining messages must still be deliverable
  // through freshly posted requests (re-matching reconciliation).
  ReverseOrderHooks hooks(/*high=*/4);
  Simulator sim(config(2, 9), &hooks);
  auto order = std::make_shared<std::vector<std::uint64_t>>();

  sim.set_program(0, [](Comm& comm) -> Task {
    for (int i = 0; i < 5; ++i)
      comm.isend(1, 7, std::vector<std::uint8_t>{0});
    co_return;
  });
  sim.set_program(1, [order](Comm& comm) -> Task {
    for (int i = 0; i < 5; ++i) {
      Request r = comm.irecv(0, 7);
      auto res = co_await comm.wait(r);
      order->push_back(res.completions[0].piggyback);
    }
  });
  sim.run();
  EXPECT_EQ(*order, (std::vector<std::uint64_t>{4, 3, 2, 1, 0}));
}

TEST(Rebinding, BoundAndUnboundCandidatesAreDistinguished) {
  struct InspectingHooks : ToolHooks {
    std::size_t max_bound = 0;
    std::size_t max_unbound = 0;
    std::uint64_t clock = 0;
    std::uint64_t on_send(Rank) override { return clock++; }
    SelectResult select(Rank rank, CallsiteId cs, MFKind kind,
                        std::span<const Candidate> candidates,
                        std::size_t total, bool blocking) override {
      std::size_t bound = 0;
      std::size_t unbound = 0;
      for (const Candidate& c : candidates) (c.bound ? bound : unbound)++;
      max_bound = std::max(max_bound, bound);
      max_unbound = std::max(max_unbound, unbound);
      return ToolHooks::select(rank, cs, kind, candidates, total, blocking);
    }
  };
  InspectingHooks hooks;
  Simulator sim(config(2, 5), &hooks);
  sim.set_program(0, [](Comm& comm) -> Task {
    for (int i = 0; i < 4; ++i) comm.isend(1, 1, {});
    co_return;
  });
  sim.set_program(1, [](Comm& comm) -> Task {
    co_await comm.compute(1e-3);  // let all four arrive first
    for (int i = 0; i < 4; ++i) {
      Request r = comm.irecv(0, 1);
      co_await comm.wait(r);
    }
  });
  sim.run();
  // One request posted at a time: exactly one bound candidate, the rest
  // visible as unbound.
  EXPECT_EQ(hooks.max_bound, 1u);
  EXPECT_EQ(hooks.max_unbound, 3u);
}

TEST(Rebinding, RemappedOntoUnmatchedRequestLeavesPostedList) {
  // Rank 0 posts R = (any source) before P = (source 1). m1 from rank 1
  // matches R; u from rank 2 fits only R and waits unexpected. The tool
  // delivers u first, which takes R, so m1 is remapped onto P — a receive
  // MPI never matched. P must leave the posted list with that delivery,
  // or m3 (rank 1's next message) would match the completed P and never
  // reach the receive posted for it.
  struct UnboundFirstHooks : ToolHooks {
    SelectResult select(Rank rank, CallsiteId cs, MFKind kind,
                        std::span<const Candidate> candidates,
                        std::size_t total, bool blocking) override {
      SelectResult result;
      for (std::size_t i = 0; i < candidates.size(); ++i)
        if (!candidates[i].bound) result.indices.push_back(i);
      if (result.indices.empty())
        return ToolHooks::select(rank, cs, kind, candidates, total, blocking);
      for (std::size_t i = 0; i < candidates.size(); ++i)
        if (candidates[i].bound) result.indices.push_back(i);
      result.action = SelectResult::Action::kDeliver;
      return result;
    }
  };
  UnboundFirstHooks hooks;
  Simulator sim(config(3), &hooks);
  auto sources = std::make_shared<std::vector<Rank>>();
  sim.set_program(0, [sources](Comm& comm) -> Task {
    const Request any = comm.irecv(kAnySource, 1);
    const Request from1 = comm.irecv(1, 1);
    co_await comm.compute(1e-4);  // m1 and u have arrived
    const Request both[] = {any, from1};
    auto first = co_await comm.waitsome(both);
    for (const Completion& c : first.completions)
      sources->push_back(c.source);
    auto third = co_await comm.wait(comm.irecv(1, 1));
    sources->push_back(third.completions.at(0).source);
  });
  sim.set_program(1, [](Comm& comm) -> Task {
    comm.isend(0, 1, {});  // m1
    co_await comm.compute(1e-3);
    comm.isend(0, 1, {});  // m3
  });
  sim.set_program(2, [](Comm& comm) -> Task {
    co_await comm.compute(1e-5);
    comm.isend(0, 1, {});  // u
  });
  sim.run();
  EXPECT_EQ(*sources, (std::vector<Rank>{2, 1, 1}));
}

}  // namespace
}  // namespace cdc::minimpi
