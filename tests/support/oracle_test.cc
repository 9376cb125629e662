// The replay-equivalence oracle itself: a checker is only as good as its
// ability to fail, so most tests here construct deliberate divergences.
#include <gtest/gtest.h>

#include <map>

#include "apps/taskfarm.h"
#include "minimpi/simulator.h"
#include "runtime/storage.h"
#include "support/oracle.h"
#include "tool/recorder.h"

namespace cdc {
namespace {

using support::ObservedEvent;
using support::OrderProbe;
using support::StreamTrace;
using support::Trace;

ObservedEvent matched(std::int32_t source, std::uint64_t clock) {
  ObservedEvent e;
  e.matched = true;
  e.source = source;
  e.tag = 1;
  e.piggyback = clock;
  e.payload_crc = 0xabcd1234;
  e.payload_size = 16;
  return e;
}

ObservedEvent unmatched() {
  ObservedEvent e;
  e.matched = false;
  return e;
}

runtime::StreamKey key(int rank, unsigned callsite = 1) {
  return runtime::StreamKey{rank, callsite};
}

Trace small_trace() {
  Trace trace;
  trace[key(0)] = {matched(1, 5), unmatched(), matched(2, 7)};
  trace[key(1)] = {matched(0, 3)};
  return trace;
}

TEST(Oracle, IdenticalTracesPass) {
  const Trace a = small_trace();
  const auto report = support::check_equivalence(a, a);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.streams_compared, 2u);
  EXPECT_EQ(report.events_compared, 4u);
}

TEST(Oracle, DetectsAnOrderSwap) {
  const Trace a = small_trace();
  Trace b = a;
  std::swap(b[key(0)][0], b[key(0)][2]);
  const auto report = support::check_equivalence(a, b);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.mismatches.empty());
  EXPECT_NE(report.summary().find("event 0"), std::string::npos);
}

TEST(Oracle, DetectsAMissingEvent) {
  const Trace a = small_trace();
  Trace b = a;
  b[key(0)].pop_back();
  EXPECT_FALSE(support::check_equivalence(a, b).ok);
}

TEST(Oracle, DetectsAMissingStream) {
  const Trace a = small_trace();
  Trace b = a;
  b.erase(key(1));
  EXPECT_FALSE(support::check_equivalence(a, b).ok);
}

TEST(Oracle, DetectsAnExtraStream) {
  const Trace a = small_trace();
  Trace b = a;
  b[key(2)] = {matched(0, 9)};
  EXPECT_FALSE(support::check_equivalence(a, b).ok);
}

TEST(Oracle, DetectsPayloadCorruption) {
  const Trace a = small_trace();
  Trace b = a;
  b[key(1)][0].payload_crc ^= 1;  // same envelope, different bytes
  EXPECT_FALSE(support::check_equivalence(a, b).ok);
}

TEST(Oracle, DetectsAMatchedUnmatchedFlip) {
  const Trace a = small_trace();
  Trace b = a;
  b[key(0)][1] = matched(1, 6);
  EXPECT_FALSE(support::check_equivalence(a, b).ok);
}

TEST(Oracle, PrefixIgnoresTailDivergence) {
  const Trace a = small_trace();
  Trace b = a;
  b[key(0)][2] = matched(3, 99);  // diverges at event 2...
  b[key(0)].push_back(matched(4, 100));
  std::map<runtime::StreamKey, std::uint64_t> prefixes;
  prefixes[key(0)] = 2;  // ...but only events 0..1 are claimed
  prefixes[key(1)] = 1;
  const auto report = support::check_prefix(a, b, prefixes);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.events_compared, 3u);
}

TEST(Oracle, PrefixStillChecksTheClaimedSpan) {
  const Trace a = small_trace();
  Trace b = a;
  b[key(0)][1] = matched(1, 6);  // diverges INSIDE the claimed prefix
  std::map<runtime::StreamKey, std::uint64_t> prefixes;
  prefixes[key(0)] = 2;
  EXPECT_FALSE(support::check_prefix(a, b, prefixes).ok);
}

TEST(Oracle, PrefixLongerThanTheRecordFails) {
  // A replayer claiming to have replayed more events than were recorded is
  // itself a bug the oracle must flag.
  const Trace a = small_trace();
  Trace b = a;
  b[key(1)].push_back(matched(2, 50));
  std::map<runtime::StreamKey, std::uint64_t> prefixes;
  prefixes[key(1)] = 2;
  EXPECT_FALSE(support::check_prefix(a, b, prefixes).ok);
}

TEST(Oracle, UnclaimedStreamsRequireNothing) {
  const Trace a = small_trace();
  Trace b;  // replay surfaced nothing at all
  const auto report =
      support::check_prefix(a, b, /*prefix_lengths=*/{});
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.events_compared, 0u);
}

TEST(Oracle, SlicesCheckOnlyTheirSpan) {
  const Trace a = small_trace();
  Trace b = a;
  b[key(0)][0] = matched(1, 99);  // before the slice
  b[key(0)].push_back(matched(4, 100));  // after it
  std::map<runtime::StreamKey, support::EventSpan> slices;
  slices[key(0)] = {1, 3};
  slices[key(1)] = {0, 0};  // empty: requires nothing
  const auto report = support::check_slices(a, b, slices);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.streams_compared, 1u);
  EXPECT_EQ(report.events_compared, 2u);

  b[key(0)][2] = matched(2, 8);  // inside it
  EXPECT_FALSE(support::check_slices(a, b, slices).ok);
}

TEST(Oracle, SlicePastEitherTraceFails) {
  const Trace a = small_trace();
  Trace longer = a;
  longer[key(1)].push_back(matched(2, 50));
  std::map<runtime::StreamKey, support::EventSpan> slices;
  slices[key(1)] = {1, 2};
  EXPECT_FALSE(support::check_slices(a, longer, slices).ok);
  EXPECT_FALSE(support::check_slices(longer, a, slices).ok);
  EXPECT_TRUE(support::check_slices(longer, longer, slices).ok);
}

TEST(Oracle, SlicesThatCompareNothingFail) {
  const Trace a = small_trace();
  std::map<runtime::StreamKey, support::EventSpan> slices;
  EXPECT_FALSE(support::check_slices(a, a, slices).ok);
  slices[key(0)] = {2, 2};
  const auto report = support::check_slices(a, a, slices);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.events_compared, 0u);
}

TEST(OrderProbe, CapturesWhatTheApplicationSaw) {
  apps::TaskFarmConfig config;
  config.tasks = 80;
  minimpi::Simulator::Config sim_config;
  sim_config.num_ranks = 5;
  sim_config.noise_seed = 17;
  OrderProbe probe;  // standalone: untooled semantics
  minimpi::Simulator sim(sim_config, &probe);
  const auto result = apps::run_taskfarm(sim, config);
  EXPECT_EQ(result.completed, 80u);
  // Every delivered receive event appears in the trace.
  std::uint64_t matched_events = 0;
  for (const auto& [k, stream] : probe.trace())
    for (const ObservedEvent& e : stream) matched_events += e.matched ? 1 : 0;
  EXPECT_EQ(matched_events, sim.stats().receive_events_delivered);
}

TEST(OrderProbe, IsInvisibleToTheWrappedTool) {
  // Recording through a probe must give the identical record (and digest)
  // as recording directly: the probe forwards every hook unchanged.
  apps::TaskFarmConfig config;
  config.tasks = 80;
  minimpi::Simulator::Config sim_config;
  sim_config.num_ranks = 5;
  sim_config.noise_seed = 23;

  runtime::MemoryStore direct_store;
  tool::Recorder direct(5, &direct_store);
  minimpi::Simulator direct_sim(sim_config, &direct);
  apps::run_taskfarm(direct_sim, config);
  direct.finalize();

  runtime::MemoryStore probed_store;
  tool::Recorder probed(5, &probed_store);
  OrderProbe probe(&probed);
  minimpi::Simulator probed_sim(sim_config, &probe);
  apps::run_taskfarm(probed_sim, config);
  probed.finalize();

  EXPECT_EQ(direct.order_digest(), probed.order_digest());
  EXPECT_EQ(direct_store.total_bytes(), probed_store.total_bytes());
  EXPECT_EQ(probe.total_events(),
            direct.totals().matched_events + direct.totals().unmatched_events);
}

}  // namespace
}  // namespace cdc
