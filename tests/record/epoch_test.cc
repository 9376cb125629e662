#include "record/epoch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "figure4.h"
#include "support/rng.h"

namespace cdc::record {
namespace {

ReceiveEvent matched(std::int32_t rank, std::uint64_t clk,
                     bool with_next = false) {
  return {true, with_next, rank, clk};
}

TEST(CleanCut, FullBufferIsCleanWhenNothingPends) {
  const auto events = testing::figure4_events();
  EXPECT_EQ(find_clean_cut(events, {}, 100), 8u);
}

TEST(CleanCut, PendingSmallerClockBlocksTheCut) {
  // §3.5's scenario: a message (rank 2, clock "old") is still undelivered;
  // flushing receives from rank 2 with larger clocks would mis-chunk it.
  std::vector<ReceiveEvent> events = {matched(0, 5), matched(2, 10),
                                      matched(0, 7)};
  PendingMins pending;
  pending[2] = 8;  // an arrived-but-undelivered message (2, 8)
  // Including (2,10) would put epoch[2]=10 >= pending 8 → cut before it.
  EXPECT_EQ(find_clean_cut(events, pending, 100), 1u);
}

TEST(CleanCut, PendingOtherSenderDoesNotBlock) {
  std::vector<ReceiveEvent> events = {matched(0, 5), matched(2, 10)};
  PendingMins pending;
  pending[1] = 1;  // sender 1 has nothing in the buffer
  EXPECT_EQ(find_clean_cut(events, pending, 100), 2u);
}

TEST(CleanCut, InversionWithinBufferMustStayTogether) {
  // (0, 9) observed before (0, 6): any cut between them is dirty.
  std::vector<ReceiveEvent> events = {matched(0, 9), matched(1, 2),
                                      matched(0, 6), matched(1, 4)};
  // Cuts of size 1 and 2 split the inversion; 3 and 4 are clean.
  EXPECT_EQ(find_clean_cut(events, {}, 1), 0u);
  EXPECT_EQ(find_clean_cut(events, {}, 2), 0u);
  EXPECT_EQ(find_clean_cut(events, {}, 3), 3u);
  EXPECT_EQ(find_clean_cut(events, {}, 4), 4u);
}

TEST(CleanCut, WithNextGroupNotSplit) {
  std::vector<ReceiveEvent> events = {matched(0, 1), matched(1, 2, true),
                                      matched(2, 3)};
  // Cut after the with_next event (L = 2) is illegal; L = 1 and 3 are fine.
  EXPECT_EQ(find_clean_cut(events, {}, 2), 1u);
  EXPECT_EQ(find_clean_cut(events, {}, 3), 3u);
}

TEST(CleanCut, CapRespected) {
  std::vector<ReceiveEvent> events;
  for (std::uint64_t c = 1; c <= 20; ++c) events.push_back(matched(0, c));
  EXPECT_EQ(find_clean_cut(events, {}, 5), 5u);
}

TEST(CleanCut, EmptyBuffer) {
  EXPECT_EQ(find_clean_cut({}, {}, 10), 0u);
}

TEST(CleanCut, UnmatchedEventsAreTransparent) {
  std::vector<ReceiveEvent> events = {
      {false, false, -1, 0}, matched(0, 1), {false, false, -1, 0},
      matched(0, 2)};
  EXPECT_EQ(find_clean_cut(events, {}, 100), 2u);
}

TEST(TakeCut, SplitsAfterLastMatchedOfThePrefix) {
  std::vector<ReceiveEvent> events = {
      matched(0, 1), {false, false, -1, 0}, matched(0, 2),
      {false, false, -1, 0}, matched(0, 3)};
  auto prefix = take_cut(events, 2);
  ASSERT_EQ(prefix.size(), 3u);  // matched, unmatched, matched
  EXPECT_EQ(prefix[2].clock, 2u);
  // Remaining buffer starts with the unmatched event before (0,3).
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[0].flag);
  EXPECT_EQ(events[1].clock, 3u);
}

TEST(TakeCut, ZeroTakesNothing) {
  std::vector<ReceiveEvent> events = {matched(0, 1)};
  EXPECT_TRUE(take_cut(events, 0).empty());
  EXPECT_EQ(events.size(), 1u);
}

TEST(CleanCutProperty, CutsAreActuallyClean) {
  support::Xoshiro256 rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ReceiveEvent> events;
    std::vector<std::uint64_t> clk(4, 0);
    for (int i = 0; i < 60; ++i) {
      const auto s = static_cast<std::int32_t>(rng.bounded(4));
      clk[static_cast<std::size_t>(s)] += 1 + rng.bounded(4);
      events.push_back(matched(s, clk[static_cast<std::size_t>(s)]));
    }
    // Shuffle lightly to create inversions.
    for (int i = 0; i < 10; ++i) {
      const std::size_t j = rng.bounded(events.size() - 1);
      std::swap(events[j], events[j + 1]);
    }
    PendingMins pending;
    if (rng.uniform() < 0.5) pending[0] = 1 + rng.bounded(20);

    const std::size_t cut = find_clean_cut(events, pending, 40);
    // Verify the clean-cut definition directly.
    for (std::size_t i = 0; i < cut; ++i) {
      for (std::size_t j = cut; j < events.size(); ++j) {
        if (events[i].rank == events[j].rank) {
          EXPECT_LT(events[i].clock, events[j].clock);
        }
      }
      const auto it = pending.find(events[i].rank);
      if (it != pending.end()) {
        EXPECT_LT(events[i].clock, it->second);
      }
    }
  }
}

// Brute-force oracle of the §3.5 definition: cutting after the L-th
// matched event is clean iff, for every sender, each of its clocks inside
// the cut is strictly below each of its clocks outside and below its
// pending minimum, and the L-th matched event does not open a with_next
// group. find_clean_cut must return the largest clean L <= cap, or 0.
std::size_t oracle_clean_cut(const std::vector<ReceiveEvent>& events,
                             const PendingMins& pending, std::size_t cap) {
  std::vector<ReceiveEvent> m;
  for (const ReceiveEvent& e : events)
    if (e.flag) m.push_back(e);
  std::size_t best = 0;
  for (std::size_t cut = 1; cut <= std::min(cap, m.size()); ++cut) {
    bool clean = !m[cut - 1].with_next;
    for (std::size_t i = 0; clean && i < cut; ++i) {
      for (std::size_t j = cut; clean && j < m.size(); ++j)
        if (m[i].rank == m[j].rank && m[i].clock >= m[j].clock) clean = false;
      const auto it = pending.find(m[i].rank);
      if (it != pending.end() && m[i].clock >= it->second) clean = false;
    }
    if (clean) best = cut;
  }
  return best;
}

struct CutCase {
  std::vector<ReceiveEvent> events;
  PendingMins pending;
};

/// A buffer of `n` receives from `senders` senders: per-sender clocks
/// increase in send order (with ties across senders), observed order is
/// the send order with local swaps and a few long displacements, plus
/// unmatched tests, with_next marks and pending minima.
CutCase random_cut_case(support::Xoshiro256& rng, std::int32_t senders,
                        std::size_t n) {
  CutCase c;
  std::vector<std::uint64_t> last(static_cast<std::size_t>(senders), 0);
  std::uint64_t now = 1;
  std::vector<ReceiveEvent> sent;
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::int32_t>(
        rng.bounded(static_cast<std::uint64_t>(senders)));
    now += rng.bounded(3);
    std::uint64_t& clk = last[static_cast<std::size_t>(s)];
    clk = std::max(now, clk + 1);
    sent.push_back(matched(s, clk, rng.bounded(6) == 0));
  }
  for (std::size_t k = 0; k + 1 < sent.size(); ++k)
    if (rng.bounded(4) == 0) std::swap(sent[k], sent[k + 1]);
  for (int k = 0; k < 2 && sent.size() > 2; ++k) {
    const std::size_t from = rng.bounded(sent.size());
    const std::size_t to = rng.bounded(sent.size());
    const ReceiveEvent e = sent[from];
    sent.erase(sent.begin() + static_cast<std::ptrdiff_t>(from));
    sent.insert(sent.begin() + static_cast<std::ptrdiff_t>(to), e);
  }
  for (const ReceiveEvent& e : sent) {
    while (rng.bounded(5) == 0) c.events.push_back({false, false, -1, 0});
    c.events.push_back(e);
  }
  // Pending minima: some below a sender's largest buffered clock (they
  // block), some above it, some for senders absent from the buffer.
  for (std::int32_t s = 0; s < senders + 2; ++s) {
    if (rng.bounded(3) != 0) continue;
    const std::uint64_t top =
        s < senders ? last[static_cast<std::size_t>(s)] : now;
    c.pending[s] = 1 + rng.bounded(top + 8);
  }
  return c;
}

TEST(CleanCutProperty, MatchesBruteForceOracle) {
  support::Xoshiro256 rng(2015);
  int nonzero = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const bool wide = trial % 10 == 9;
    const std::int32_t senders =
        wide ? 768 : 1 + static_cast<std::int32_t>(rng.bounded(6));
    const std::size_t n = wide ? 200 + rng.bounded(200) : rng.bounded(70);
    CutCase c = random_cut_case(rng, senders, n);
    if (rng.bounded(2) == 0) c.pending.clear();
    for (const std::size_t cap : {n / 2, n, n + 1 + rng.bounded(10),
                                  std::size_t{1}, rng.bounded(n + 1)}) {
      const std::size_t expected = oracle_clean_cut(c.events, c.pending, cap);
      EXPECT_EQ(find_clean_cut(c.events, c.pending, cap), expected)
          << "trial " << trial << " senders " << senders << " cap " << cap;
      nonzero += expected > 0;
    }
  }
  // The cases must exercise both outcomes.
  EXPECT_GT(nonzero, 500);
  EXPECT_LT(nonzero, 3000);
}

}  // namespace
}  // namespace cdc::record
