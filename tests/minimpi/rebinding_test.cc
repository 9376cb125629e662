// Replay-tool request rebinding in the simulator: unbound candidates,
// displacement, and the re-matching that follows (the PMPI-layer remapping
// of interchangeable requests that order-replay tools perform). Displaced
// messages go back to the unexpected queue, so every case runs on one and
// on four workers with the same assertions; each test tool keeps its
// state per rank, as hooks called from concurrent workers must.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "minimpi/simulator.h"

namespace cdc::minimpi {
namespace {

constexpr int kWorkerCounts[] = {1, 4};

Simulator::Config config(int ranks, std::uint64_t seed, int workers) {
  Simulator::Config c;
  c.num_ranks = ranks;
  c.noise_seed = seed;
  c.workers = workers;
  return c;
}

/// A tool that releases messages in DESCENDING piggyback order — the
/// opposite of arrival — exercising unbound candidate delivery and
/// displacement of MPI-matched messages. Rank 0 sends, rank 1 receives.
struct ReverseOrderHooks : ToolHooks {
  std::vector<std::uint64_t> next_clock;     ///< per sending rank
  std::vector<std::uint64_t> expected_high;  ///< per receiving rank

  explicit ReverseOrderHooks(std::uint64_t high)
      : next_clock(2, 0), expected_high(2, high) {}

  std::uint64_t on_send(Rank sender) override {
    return next_clock[static_cast<std::size_t>(sender)]++;
  }

  SelectResult select(Rank rank, CallsiteId, MFKind,
                      std::span<const Candidate> candidates,
                      std::size_t, bool blocking) override {
    SelectResult result;
    std::uint64_t& high = expected_high[static_cast<std::size_t>(rank)];
    // Wait until the highest-clock message we still expect is visible,
    // then deliver exactly it (bound or not).
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].piggyback == high) {
        result.action = SelectResult::Action::kDeliver;
        result.indices.push_back(i);
        --high;
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
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    ReverseOrderHooks hooks(/*high=*/2);
    Simulator sim(config(2, 3, workers), &hooks);
    auto order = std::make_shared<std::vector<std::uint64_t>>();

    sim.set_program(0, [](Comm& comm) -> Task {
      for (int i = 0; i < 3; ++i) {
        comm.isend(1, 1,
                   std::vector<std::uint8_t>{static_cast<std::uint8_t>(i)});
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
}

TEST(Rebinding, DisplacedMessagesRematchLaterRequests) {
  // After displacement, the remaining messages must still be deliverable
  // through freshly posted requests (re-matching reconciliation).
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    ReverseOrderHooks hooks(/*high=*/4);
    Simulator sim(config(2, 9, workers), &hooks);
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
}

TEST(Rebinding, BoundAndUnboundCandidatesAreDistinguished) {
  /// Per rank: the most bound and unbound candidates one poll saw, and
  /// the sender's clock.
  struct InspectingHooks : ToolHooks {
    std::vector<std::size_t> max_bound = std::vector<std::size_t>(2, 0);
    std::vector<std::size_t> max_unbound = std::vector<std::size_t>(2, 0);
    std::vector<std::uint64_t> clock = std::vector<std::uint64_t>(2, 0);
    std::uint64_t on_send(Rank sender) override {
      return clock[static_cast<std::size_t>(sender)]++;
    }
    SelectResult select(Rank rank, CallsiteId cs, MFKind kind,
                        std::span<const Candidate> candidates,
                        std::size_t total, bool blocking) override {
      std::size_t bound = 0;
      std::size_t unbound = 0;
      for (const Candidate& c : candidates) (c.bound ? bound : unbound)++;
      const auto r = static_cast<std::size_t>(rank);
      max_bound[r] = std::max(max_bound[r], bound);
      max_unbound[r] = std::max(max_unbound[r], unbound);
      return ToolHooks::select(rank, cs, kind, candidates, total, blocking);
    }
  };
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    InspectingHooks hooks;
    Simulator sim(config(2, 5, workers), &hooks);
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
    EXPECT_EQ(hooks.max_bound[1], 1u);
    EXPECT_EQ(hooks.max_unbound[1], 3u);
  }
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
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    UnboundFirstHooks hooks;
    Simulator sim(config(3, 1, workers), &hooks);
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
}

}  // namespace
}  // namespace cdc::minimpi
