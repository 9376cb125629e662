#include "minimpi/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace cdc::minimpi {
namespace {

Simulator::Config config(int ranks, std::uint64_t seed = 1) {
  Simulator::Config c;
  c.num_ranks = ranks;
  c.noise_seed = seed;
  return c;
}

std::vector<std::uint8_t> payload(std::uint8_t v) { return {v}; }

TEST(Simulator, PingPong) {
  Simulator sim(config(2));
  auto log = std::make_shared<std::vector<int>>();
  sim.set_program(0, [log](Comm& comm) -> Task {
    comm.isend(1, 7, payload(42));
    Request r = comm.irecv(1, 8);
    auto res = co_await comm.wait(r);
    EXPECT_TRUE(res.flag);
    EXPECT_EQ(res.completions.size(), 1u);
    EXPECT_EQ(res.completions[0].source, 1);
    EXPECT_EQ(res.completions[0].payload[0], 43);
    log->push_back(1);
  });
  sim.set_program(1, [](Comm& comm) -> Task {
    Request r = comm.irecv(0, 7);
    auto res = co_await comm.wait(r);
    EXPECT_EQ(res.completions[0].payload[0], 42);
    comm.isend(0, 8, payload(43));
  });
  const auto stats = sim.run();
  EXPECT_EQ(stats.messages_sent, 2u);
  EXPECT_EQ(stats.receive_events_delivered, 2u);
  EXPECT_EQ(log->size(), 1u);
}

TEST(Simulator, AnySourceAndAnyTagMatch) {
  Simulator sim(config(3));
  sim.set_program(0, [](Comm& comm) -> Task {
    Request a = comm.irecv(kAnySource, kAnyTag);
    Request b = comm.irecv(kAnySource, kAnyTag);
    const Request reqs[] = {a, b};
    auto res = co_await comm.waitall(reqs);
    EXPECT_EQ(res.completions.size(), 2u);
    // Both senders appear exactly once.
    const int s0 = res.completions[0].source;
    const int s1 = res.completions[1].source;
    EXPECT_NE(s0, s1);
    EXPECT_TRUE((s0 == 1 || s0 == 2) && (s1 == 1 || s1 == 2));
  });
  for (Rank r = 1; r <= 2; ++r) {
    sim.set_program(r, [](Comm& comm) -> Task {
      comm.isend(0, 5, payload(9));
      co_return;
    });
  }
  sim.run();
}

TEST(Simulator, NonOvertakingPerChannel) {
  // Messages from one sender must be received in send order (Figure 3's
  // MPI-level guarantee).
  Simulator sim(config(2, /*seed=*/99));
  sim.set_program(0, [](Comm& comm) -> Task {
    for (std::uint8_t i = 0; i < 50; ++i) comm.isend(1, 3, payload(i));
    co_return;
  });
  sim.set_program(1, [](Comm& comm) -> Task {
    for (std::uint8_t i = 0; i < 50; ++i) {
      Request r = comm.irecv(0, 3);
      auto res = co_await comm.wait(r);
      EXPECT_EQ(res.completions[0].payload[0], i);
    }
  });
  sim.run();
}

TEST(Simulator, TestReturnsFalseBeforeArrival) {
  Simulator sim(config(2));
  auto unmatched_seen = std::make_shared<int>(0);
  sim.set_program(0, [unmatched_seen](Comm& comm) -> Task {
    Request r = comm.irecv(1, 1);
    for (;;) {
      auto res = co_await comm.test(r);
      if (res.flag) break;
      ++*unmatched_seen;
      co_await comm.compute(1e-7);
    }
  });
  sim.set_program(1, [](Comm& comm) -> Task {
    co_await comm.compute(1e-3);  // long delay: many failed tests first
    comm.isend(0, 1, payload(1));
  });
  const auto stats = sim.run();
  EXPECT_GT(*unmatched_seen, 10);
  EXPECT_EQ(stats.unmatched_tests,
            static_cast<std::uint64_t>(*unmatched_seen));
}

TEST(Simulator, TestsomeDeliversSubsets) {
  Simulator sim(config(4));
  sim.set_program(0, [](Comm& comm) -> Task {
    std::vector<Request> reqs;
    for (Rank r = 1; r <= 3; ++r) reqs.push_back(comm.irecv(r, 2));
    std::size_t got = 0;
    while (got < 3) {
      auto res = co_await comm.testsome(reqs);
      for (const Completion& c : res.completions) {
        EXPECT_EQ(c.source, static_cast<Rank>(c.span_index) + 1);
        ++got;
      }
      co_await comm.compute(1e-7);
    }
  });
  for (Rank r = 1; r <= 3; ++r) {
    sim.set_program(r, [r](Comm& comm) -> Task {
      co_await comm.compute(1e-6 * static_cast<double>(r));
      comm.isend(0, 2, payload(static_cast<std::uint8_t>(r)));
    });
  }
  sim.run();
}

TEST(Simulator, WaitallDeliversMoreReceivesThanTheInlineIndexRoom) {
  // 20 receives complete in one call: the selection's index list outgrows
  // its 16 inline entries. Odd messages are 100 bytes (past the inline
  // payload), even ones 1 byte; each arrives intact on its own request.
  constexpr int kMessages = 20;
  Simulator sim(config(2));
  auto delivered = std::make_shared<std::size_t>(0);
  sim.set_program(0, [delivered](Comm& comm) -> Task {
    std::vector<Request> reqs;
    for (int i = 0; i < kMessages; ++i) reqs.push_back(comm.irecv(1, 3));
    const auto res = co_await comm.waitall(reqs);
    *delivered = res.completions.size();
    for (const Completion& c : res.completions) {
      const std::size_t i = c.span_index;
      EXPECT_EQ(c.payload.size(), i % 2 == 1 ? 100u : 1u);
      for (const std::uint8_t byte : c.payload)
        EXPECT_EQ(byte, static_cast<std::uint8_t>(i));
    }
  });
  sim.set_program(1, [](Comm& comm) -> Task {
    for (int i = 0; i < kMessages; ++i)
      comm.isend(0, 3,
                 std::vector<std::uint8_t>(i % 2 == 1 ? 100 : 1,
                                           static_cast<std::uint8_t>(i)));
    co_return;
  });
  sim.run();
  EXPECT_EQ(*delivered, static_cast<std::size_t>(kMessages));
}

TEST(Simulator, WaitanyDeliversExactlyOne) {
  Simulator sim(config(3));
  sim.set_program(0, [](Comm& comm) -> Task {
    std::vector<Request> reqs = {comm.irecv(1, 1), comm.irecv(2, 1)};
    auto res = co_await comm.waitany(reqs);
    EXPECT_EQ(res.completions.size(), 1u);
    // Clean up the other request with a wait.
    const std::size_t other = 1 - res.completions[0].span_index;
    auto res2 = co_await comm.wait(reqs[other]);
    EXPECT_EQ(res2.completions.size(), 1u);
  });
  for (Rank r = 1; r <= 2; ++r) {
    sim.set_program(r, [](Comm& comm) -> Task {
      comm.isend(0, 1, payload(0));
      co_return;
    });
  }
  sim.run();
}

TEST(Simulator, TestallIsAllOrNothing) {
  Simulator sim(config(3));
  auto partial_seen = std::make_shared<bool>(false);
  sim.set_program(0, [partial_seen](Comm& comm) -> Task {
    std::vector<Request> reqs = {comm.irecv(1, 1), comm.irecv(2, 1)};
    for (;;) {
      auto res = co_await comm.testall(reqs);
      if (res.flag) {
        EXPECT_EQ(res.completions.size(), 2u);
        break;
      }
      EXPECT_TRUE(res.completions.empty());
      *partial_seen = true;
      co_await comm.compute(1e-7);
    }
  });
  sim.set_program(1, [](Comm& comm) -> Task {
    comm.isend(0, 1, payload(1));
    co_return;
  });
  sim.set_program(2, [](Comm& comm) -> Task {
    co_await comm.compute(1e-3);  // arrives much later
    comm.isend(0, 1, payload(2));
  });
  sim.run();
  EXPECT_TRUE(*partial_seen);
}

TEST(Simulator, WaitallOnSendsCompletesImmediately) {
  Simulator sim(config(2));
  sim.set_program(0, [](Comm& comm) -> Task {
    std::vector<Request> sends;
    for (int i = 0; i < 5; ++i) sends.push_back(comm.isend(1, 1, payload(0)));
    auto res = co_await comm.waitall(sends);
    EXPECT_TRUE(res.flag);
    EXPECT_TRUE(res.completions.empty());
  });
  sim.set_program(1, [](Comm& comm) -> Task {
    for (int i = 0; i < 5; ++i) {
      Request r = comm.irecv(0, 1);
      co_await comm.wait(r);
    }
  });
  sim.run();
}

TEST(Simulator, UnexpectedMessagesMatchLaterRecv) {
  // Message arrives before the receive is posted.
  Simulator sim(config(2));
  sim.set_program(0, [](Comm& comm) -> Task {
    comm.isend(1, 9, payload(77));
    co_return;
  });
  sim.set_program(1, [](Comm& comm) -> Task {
    co_await comm.compute(1e-3);  // post the recv long after arrival
    Request r = comm.irecv(0, 9);
    auto res = co_await comm.wait(r);
    EXPECT_EQ(res.completions[0].payload[0], 77);
  });
  sim.run();
}

TEST(Simulator, TagSelectivity) {
  Simulator sim(config(2));
  sim.set_program(0, [](Comm& comm) -> Task {
    comm.isend(1, 1, payload(1));
    comm.isend(1, 2, payload(2));
    co_return;
  });
  sim.set_program(1, [](Comm& comm) -> Task {
    // Wait for tag 2 first even though tag 1 is sent (and arrives) first.
    Request r2 = comm.irecv(0, 2);
    auto res2 = co_await comm.wait(r2);
    EXPECT_EQ(res2.completions[0].payload[0], 2);
    Request r1 = comm.irecv(0, 1);
    auto res1 = co_await comm.wait(r1);
    EXPECT_EQ(res1.completions[0].payload[0], 1);
  });
  sim.run();
}

TEST(Simulator, SameSeedIsBitReproducible) {
  for (int trial = 0; trial < 2; ++trial) {
    static double first_end = 0.0;
    Simulator sim(config(4, 5));
    sim.set_program([](Comm& comm) -> Task {
      for (int iter = 0; iter < 10; ++iter) {
        for (Rank r = 0; r < comm.size(); ++r)
          if (r != comm.rank()) comm.isend(r, 1, payload(0));
        for (Rank r = 0; r < comm.size(); ++r) {
          if (r == comm.rank()) continue;
          Request req = comm.irecv(kAnySource, 1);
          co_await comm.wait(req);
        }
        co_await comm.compute(1e-6);
      }
    });
    const auto stats = sim.run();
    if (trial == 0) {
      first_end = stats.end_time;
    } else {
      EXPECT_EQ(stats.end_time, first_end);
    }
  }
}

TEST(Simulator, BarrierSynchronises) {
  Simulator sim(config(5));
  auto order = std::make_shared<std::vector<int>>();
  sim.set_program([order](Comm& comm) -> Task {
    co_await comm.compute(1e-6 * static_cast<double>(comm.rank() + 1));
    order->push_back(0);  // before barrier
    co_await comm.barrier();
    order->push_back(1);  // after barrier
  });
  sim.run();
  // All "before" entries precede all "after" entries.
  ASSERT_EQ(order->size(), 10u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ((*order)[i], 0);
  for (std::size_t i = 5; i < 10; ++i) EXPECT_EQ((*order)[i], 1);
}

TEST(Simulator, AllreduceSumsInRankOrder) {
  Simulator sim(config(4));
  auto results = std::make_shared<std::vector<double>>();
  sim.set_program([results](Comm& comm) -> Task {
    std::vector<double> contribution = {
        static_cast<double>(comm.rank() + 1), 1.0};
    auto sums = co_await comm.allreduce_sum(std::move(contribution));
    if (comm.rank() == 0) *results = sums;
  });
  sim.run();
  ASSERT_EQ(results->size(), 2u);
  EXPECT_DOUBLE_EQ((*results)[0], 10.0);
  EXPECT_DOUBLE_EQ((*results)[1], 4.0);
}

TEST(Simulator, PiggybackFlowsThroughHooks) {
  struct CountingHooks : ToolHooks {
    std::uint64_t next = 100;
    std::vector<std::uint64_t> seen;
    std::uint64_t on_send(Rank) override { return next++; }
    void on_deliver(Rank, CallsiteId, MFKind,
                    std::span<const Completion> events) override {
      for (const Completion& e : events) seen.push_back(e.piggyback);
    }
  };
  CountingHooks hooks;
  Simulator sim(config(2), &hooks);
  sim.set_program(0, [](Comm& comm) -> Task {
    comm.isend(1, 1, payload(0));
    comm.isend(1, 1, payload(0));
    co_return;
  });
  sim.set_program(1, [](Comm& comm) -> Task {
    for (int i = 0; i < 2; ++i) {
      Request r = comm.irecv(0, 1);
      co_await comm.wait(r);
    }
  });
  sim.run();
  EXPECT_EQ(hooks.seen, (std::vector<std::uint64_t>{100, 101}));
}

TEST(Simulator, DeadlockAborts) {
  EXPECT_DEATH(
      {
        Simulator sim(config(2));
        sim.set_program(0, [](Comm& comm) -> Task {
          Request r = comm.irecv(1, 1);  // never sent
          co_await comm.wait(r);
        });
        sim.set_program(1, [](Comm&) -> Task { co_return; });
        sim.run();
      },
      "deadlock");
}

TEST(Simulator, MFOnUnissuedHandleAbortsNamingTheRank) {
  EXPECT_DEATH(
      {
        Simulator sim(config(2));
        sim.set_program(0, [](Comm& comm) -> Task {
          co_await comm.wait(Request{1000});  // never returned by isend/irecv
        });
        sim.set_program(1, [](Comm&) -> Task { co_return; });
        sim.run();
      },
      "rank 0 passed an MF call a request it never issued");
}

TEST(Simulator, CompletedHandleStaysInactiveAfterItsSlotIsReused) {
  Simulator sim(config(2));
  sim.set_program(0, [](Comm& comm) -> Task {
    comm.isend(1, 1, payload(1));  // A
    co_await comm.compute(1e-3);   // B arrives long after A
    comm.isend(1, 2, payload(2));  // B
  });
  sim.set_program(1, [](Comm& comm) -> Task {
    const Request a = comm.irecv(0, 1);
    auto got_a = co_await comm.wait(a);
    EXPECT_EQ(got_a.completions.size(), 1u);
    // A's slot is free again, so B's receive takes it.
    const Request b = comm.irecv(0, 2);
    const Request both[] = {a, b};

    auto again = co_await comm.wait(a);
    EXPECT_TRUE(again.flag);
    EXPECT_TRUE(again.completions.empty());
    auto pending = co_await comm.test(b);
    EXPECT_FALSE(pending.flag);

    auto early = co_await comm.testsome(both);
    for (const Completion& c : early.completions) EXPECT_NE(c.span_index, 0u);
    auto all = co_await comm.waitall(both);
    EXPECT_EQ(all.completions.size(), 1u);
    for (const Completion& c : all.completions) {
      EXPECT_EQ(c.span_index, 1u);
      EXPECT_EQ(c.payload.at(0), 2);
    }
    auto late = co_await comm.testsome(both);
    EXPECT_TRUE(late.flag);
    EXPECT_TRUE(late.completions.empty());
  });
  const auto stats = sim.run();
  EXPECT_EQ(stats.receive_events_delivered, 2u);
  EXPECT_EQ(stats.max_live_requests, 1u);  // B reused A's slot
}

TEST(Simulator, UnexpectedQueueDepthAndScanAreCounted) {
  // Rank 0 sends five tag-1 messages that rank 1 has not posted for: they
  // queue as unexpected. One Test on a tag-2 receive then polls once and
  // scans all five; the receives posted next match them at post time, so
  // every later poll finds the queue empty. Posting the tag-2 receive
  // compares all five queued messages and each tag-1 post compares one.
  Simulator sim(config(2));
  sim.set_program(0, [](Comm& comm) -> Task {
    for (std::uint8_t i = 0; i < 5; ++i) comm.isend(1, 1, payload(i));
    co_await comm.compute(1e-3);
    comm.isend(1, 2, payload(9));
  });
  sim.set_program(1, [](Comm& comm) -> Task {
    co_await comm.compute(1e-4);  // five latencies of ~1.5 us pass
    const Request late = comm.irecv(0, 2);
    const auto early = co_await comm.test(late);
    EXPECT_FALSE(early.flag);
    std::vector<Request> backlog;
    for (int i = 0; i < 5; ++i) backlog.push_back(comm.irecv(0, 1));
    const auto drained = co_await comm.waitall(backlog);
    EXPECT_EQ(drained.completions.size(), 5u);
    co_await comm.wait(late);
  });
  const auto stats = sim.run();
  EXPECT_EQ(stats.receive_events_delivered, 6u);
  EXPECT_EQ(stats.max_unexpected, 5u);
  EXPECT_EQ(stats.unexpected_scanned, 5u);
  EXPECT_EQ(stats.irecv_scanned, 10u);
}

TEST(Simulator, ExceptionInRankPropagates) {
  Simulator sim(config(1));
  sim.set_program(0, [](Comm& comm) -> Task {
    co_await comm.compute(1e-9);
    throw std::runtime_error("rank failure");
  });
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulator, VirtualTimeAdvancesWithCompute) {
  Simulator sim(config(1));
  sim.set_program(0, [](Comm& comm) -> Task {
    const double before = comm.now();
    co_await comm.compute(1.5);
    EXPECT_GE(comm.now(), before + 1.5);
  });
  const auto stats = sim.run();
  EXPECT_GE(stats.end_time, 1.5);
}

TEST(Simulator, PayloadHelpersRoundTrip) {
  struct Pod {
    double a;
    std::uint32_t b;
  };
  const Pod value{3.25, 17};
  const auto bytes = to_payload(value);
  EXPECT_EQ(bytes.size(), sizeof(Pod));
  const Pod back = from_payload<Pod>(bytes);
  EXPECT_EQ(back.a, value.a);
  EXPECT_EQ(back.b, value.b);
}

}  // namespace
}  // namespace cdc::minimpi
