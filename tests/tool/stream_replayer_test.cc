// Direct unit tests of the replay gate's state machine: unmatched-test
// consumption, arrival-gated releases, with_next group delivery, epoch
// chunk classification, and passthrough after exhaustion — driven without
// the simulator.
#include "tool/stream_replayer.h"

#include <gtest/gtest.h>

#include "record/chunk.h"
#include "record/event.h"
#include "runtime/storage.h"
#include "tool/frame.h"
#include "tool/stream_recorder.h"

namespace cdc::tool {
namespace {

using record::ReceiveEvent;

/// Builds the recorded byte stream for one callsite from a raw event list.
std::vector<std::uint8_t> record_stream(
    const std::vector<ReceiveEvent>& events, std::size_t chunk_target = 64) {
  runtime::MemoryStore store;
  ToolOptions options;
  options.chunk_target = chunk_target;
  StreamRecorder recorder({0, 1}, options);
  for (const ReceiveEvent& e : events) {
    if (e.flag) {
      recorder.on_delivered(e);
    } else {
      recorder.on_unmatched_test();
    }
    recorder.flush_if_due(store);
  }
  recorder.finalize(store);
  return store.read({0, 1});
}

minimpi::Candidate candidate(std::int32_t source, std::uint64_t clk,
                             bool fresh = true) {
  minimpi::Candidate c;
  c.span_index = 0;
  c.source = source;
  c.piggyback = clk;
  c.fresh = fresh;
  return c;
}

minimpi::Completion completion(std::int32_t source, std::uint64_t clk) {
  minimpi::Completion c;
  c.source = source;
  c.piggyback = clk;
  return c;
}

/// Decides one single-message call over `cands`, expects `expected`, and
/// confirms its delivery.
void expect_delivers(StreamReplayer& replayer,
                     const std::vector<minimpi::Candidate>& cands,
                     const clock::MessageId& expected) {
  const auto& decision = replayer.decide(minimpi::MFKind::kWaitany, cands);
  ASSERT_EQ(decision.kind, StreamReplayer::Decision::Kind::kDeliver);
  ASSERT_EQ(decision.messages.size(), 1u);
  EXPECT_EQ(decision.messages[0], expected);
  const minimpi::Completion done[] = {
      completion(expected.sender, expected.clock)};
  replayer.confirm_delivered(done);
}

TEST(StreamReplayer, EmptyRecordIsExhaustedImmediately) {
  StreamReplayer replayer({0, 1}, {});
  EXPECT_TRUE(replayer.exhausted());
  const auto decision = replayer.decide(minimpi::MFKind::kTest, {});
  EXPECT_EQ(decision.kind, StreamReplayer::Decision::Kind::kPassthrough);
}

TEST(StreamReplayer, ConsumesUnmatchedRunsThenDelivers) {
  // Record: two failed tests, then a receive from (3, 10).
  const auto bytes = record_stream({
      {false, false, -1, 0},
      {false, false, -1, 0},
      {true, false, 3, 10},
  });
  StreamReplayer replayer({0, 1}, bytes);
  ASSERT_FALSE(replayer.exhausted());

  // The message may already be visible, but the two recorded unmatched
  // tests must surface first.
  replayer.sight({3, 10});
  for (int i = 0; i < 2; ++i) {
    const std::vector<minimpi::Candidate> cands = {candidate(3, 10, i == 0)};
    const auto decision = replayer.decide(minimpi::MFKind::kTest, cands);
    ASSERT_EQ(decision.kind, StreamReplayer::Decision::Kind::kNoMatch);
    replayer.confirm_unmatched();
  }

  const std::vector<minimpi::Candidate> cands = {candidate(3, 10, false)};
  const auto decision = replayer.decide(minimpi::MFKind::kTest, cands);
  ASSERT_EQ(decision.kind, StreamReplayer::Decision::Kind::kDeliver);
  ASSERT_EQ(decision.messages.size(), 1u);
  EXPECT_EQ(decision.messages[0], (clock::MessageId{3, 10}));
  const minimpi::Completion done[] = {completion(3, 10)};
  replayer.confirm_delivered(done);
  EXPECT_TRUE(replayer.exhausted());
}

TEST(StreamReplayer, BlocksUntilTheRecordedMessageArrives) {
  const auto bytes = record_stream({
      {true, false, 1, 5},
      {true, false, 2, 6},
  });
  StreamReplayer replayer({0, 1}, bytes);

  // Only (2,6) has arrived; position 0 wants (1,5): block even for a Test.
  replayer.sight({2, 6});
  {
    const std::vector<minimpi::Candidate> cands = {candidate(2, 6)};
    EXPECT_EQ(replayer.decide(minimpi::MFKind::kTest, cands).kind,
              StreamReplayer::Decision::Kind::kBlock);
  }
  replayer.sight({1, 5});
  {
    const std::vector<minimpi::Candidate> cands = {candidate(2, 6, false),
                                                   candidate(1, 5, false)};
    const auto decision = replayer.decide(minimpi::MFKind::kTest, cands);
    ASSERT_EQ(decision.kind, StreamReplayer::Decision::Kind::kDeliver);
    EXPECT_EQ(decision.messages[0], (clock::MessageId{1, 5}));
  }
}

TEST(StreamReplayer, OutOfReferenceOrderObservedSequence) {
  // Recorded observed order (2,8) before (1,5): replay must release the
  // later-clock message first, exactly as recorded.
  const auto bytes = record_stream({
      {true, false, 2, 8},
      {true, false, 1, 5},
  });
  StreamReplayer replayer({0, 1}, bytes);
  replayer.sight({1, 5});
  replayer.sight({2, 8});
  const std::vector<minimpi::Candidate> cands = {candidate(1, 5, false),
                                                 candidate(2, 8, false)};
  auto decision = replayer.decide(minimpi::MFKind::kWaitany, cands);
  ASSERT_EQ(decision.kind, StreamReplayer::Decision::Kind::kDeliver);
  EXPECT_EQ(decision.messages[0], (clock::MessageId{2, 8}));
  const minimpi::Completion first[] = {completion(2, 8)};
  replayer.confirm_delivered(first);

  decision = replayer.decide(minimpi::MFKind::kWaitany, cands);
  ASSERT_EQ(decision.kind, StreamReplayer::Decision::Kind::kDeliver);
  EXPECT_EQ(decision.messages[0], (clock::MessageId{1, 5}));
}

TEST(StreamReplayer, WithNextGroupsDeliverTogether) {
  const auto bytes = record_stream({
      {true, true, 1, 5},
      {true, false, 2, 6},
      {true, false, 1, 9},
  });
  StreamReplayer replayer({0, 1}, bytes);
  replayer.sight({1, 5});
  // Group {(1,5),(2,6)} incomplete: block.
  {
    const std::vector<minimpi::Candidate> cands = {candidate(1, 5)};
    EXPECT_EQ(replayer.decide(minimpi::MFKind::kWaitsome, cands).kind,
              StreamReplayer::Decision::Kind::kBlock);
  }
  replayer.sight({2, 6});
  const std::vector<minimpi::Candidate> cands = {candidate(1, 5, false),
                                                 candidate(2, 6, false)};
  const auto decision = replayer.decide(minimpi::MFKind::kWaitsome, cands);
  ASSERT_EQ(decision.kind, StreamReplayer::Decision::Kind::kDeliver);
  ASSERT_EQ(decision.messages.size(), 2u);
  EXPECT_EQ(decision.messages[0], (clock::MessageId{1, 5}));
  EXPECT_EQ(decision.messages[1], (clock::MessageId{2, 6}));
}

TEST(StreamReplayer, GroupOnSingleDeliveryKindAborts) {
  const auto bytes = record_stream({
      {true, true, 1, 5},
      {true, false, 2, 6},
  });
  StreamReplayer replayer({0, 1}, bytes);
  replayer.sight({1, 5});
  replayer.sight({2, 6});
  const std::vector<minimpi::Candidate> cands = {candidate(1, 5, false),
                                                 candidate(2, 6, false)};
  EXPECT_DEATH(replayer.decide(minimpi::MFKind::kWait, cands),
               "single-delivery");
}

TEST(StreamReplayer, FutureChunkMessagesAreHeldOver) {
  // Two chunks (chunk_target = 2): the second chunk's messages have
  // strictly larger per-sender clocks (clean cut). A message of chunk 2
  // sighted during chunk 1 must not be delivered early.
  const auto bytes = record_stream(
      {
          {true, false, 1, 5},
          {true, false, 1, 7},
          {true, false, 1, 11},
          {true, false, 1, 13},
      },
      /*chunk_target=*/2);
  StreamReplayer replayer({0, 1}, bytes);

  replayer.sight({1, 5});
  replayer.sight({1, 7});
  replayer.sight({1, 11});  // belongs to chunk 2 (epoch_1[1] == 7)

  const std::vector<minimpi::Candidate> cands = {
      candidate(1, 5, false), candidate(1, 7, false),
      candidate(1, 11, false)};
  for (const std::uint64_t expected : {5ull, 7ull}) {
    const auto decision = replayer.decide(minimpi::MFKind::kTest, cands);
    ASSERT_EQ(decision.kind, StreamReplayer::Decision::Kind::kDeliver);
    EXPECT_EQ(decision.messages[0].clock, expected);
    const minimpi::Completion done[] = {completion(1, expected)};
    replayer.confirm_delivered(done);
  }
  // Chunk 2 active now; the held-over (1,11) becomes deliverable.
  const auto decision = replayer.decide(minimpi::MFKind::kTest, cands);
  ASSERT_EQ(decision.kind, StreamReplayer::Decision::Kind::kDeliver);
  EXPECT_EQ(decision.messages[0].clock, 11u);
  EXPECT_EQ(replayer.stats().chunks, 2u);
}

TEST(StreamReplayer, WrongDeliveryConfirmationAborts) {
  const auto bytes = record_stream({{true, false, 1, 5}});
  StreamReplayer replayer({0, 1}, bytes);
  replayer.sight({1, 5});
  const minimpi::Completion wrong[] = {completion(1, 6)};
  EXPECT_DEATH(replayer.confirm_delivered(wrong), "differs|never");
}

TEST(StreamReplayer, WaitWhileUnmatchedRecordedAborts) {
  const auto bytes = record_stream({
      {false, false, -1, 0},
      {true, false, 1, 5},
  });
  StreamReplayer replayer({0, 1}, bytes);
  replayer.sight({1, 5});
  const std::vector<minimpi::Candidate> cands = {candidate(1, 5, false)};
  EXPECT_DEATH(replayer.decide(minimpi::MFKind::kWait, cands),
               "unmatched test");
}

TEST(StreamReplayer, PassthroughAfterExhaustion) {
  const auto bytes = record_stream({{true, false, 1, 5}});
  StreamReplayer replayer({0, 1}, bytes);
  replayer.sight({1, 5});
  const std::vector<minimpi::Candidate> cands = {candidate(1, 5, false)};
  const auto decision = replayer.decide(minimpi::MFKind::kTest, cands);
  ASSERT_EQ(decision.kind, StreamReplayer::Decision::Kind::kDeliver);
  const minimpi::Completion done[] = {completion(1, 5)};
  replayer.confirm_delivered(done);
  EXPECT_TRUE(replayer.exhausted());
  EXPECT_EQ(replayer.decide(minimpi::MFKind::kTest, {}).kind,
            StreamReplayer::Decision::Kind::kPassthrough);
}

// --- Flat sender state: epoch-line slots, per-slot arrivals, holdovers.

TEST(StreamReplayer, ManySendersSightedInDescendingOrder) {
  // The shape of rank 0's done callsite in MCB: one chunk holding one
  // message from each of 768 senders, sighted highest sender first.
  constexpr int kSenders = 768;
  std::vector<ReceiveEvent> events;
  for (int s = 0; s < kSenders; ++s)
    events.push_back(
        {true, false, s, 1000 + static_cast<std::uint64_t>(s * 37 % 501)});
  const auto bytes = record_stream(events, /*chunk_target=*/4096);
  StreamReplayer replayer({0, 1}, bytes);

  std::vector<minimpi::Candidate> cands;
  for (int s = kSenders; s-- > 0;) {
    const ReceiveEvent& e = events[static_cast<std::size_t>(s)];
    if (s == 0) {
      // Everyone but the first recorded sender has arrived: wait for it.
      EXPECT_EQ(replayer.decide(minimpi::MFKind::kWaitany, cands).kind,
                StreamReplayer::Decision::Kind::kBlock);
    }
    replayer.sight(e.id());
    cands.push_back(candidate(e.rank, e.clock, false));
  }
  for (const ReceiveEvent& e : events) expect_delivers(replayer, cands, e.id());
  EXPECT_TRUE(replayer.exhausted());
  EXPECT_EQ(replayer.stats().chunks, 1u);
  EXPECT_EQ(replayer.stats().replayed_events,
            static_cast<std::uint64_t>(kSenders));
}

TEST(StreamReplayer, SenderOfALaterChunkIsHeldOver) {
  // Sender 2 first appears in chunk 2, but its message is sighted while
  // chunk 1 (whose epoch line has no slot for it) is being replayed.
  const auto bytes = record_stream(
      {{true, false, 1, 5}, {true, false, 1, 7},
       {true, false, 2, 3}, {true, false, 1, 11}},
      /*chunk_target=*/2);
  StreamReplayer replayer({0, 1}, bytes);
  replayer.sight({2, 3});
  replayer.sight({1, 5});
  replayer.sight({1, 7});
  const std::vector<minimpi::Candidate> cands = {
      candidate(2, 3, false), candidate(1, 5, false), candidate(1, 7, false)};
  expect_delivers(replayer, cands, {1, 5});
  expect_delivers(replayer, cands, {1, 7});
  EXPECT_EQ(replayer.stats().chunks, 2u);
  expect_delivers(replayer, cands, {2, 3});
  replayer.sight({1, 11});
  expect_delivers(replayer, {candidate(1, 11, false)}, {1, 11});
  EXPECT_TRUE(replayer.exhausted());
}

TEST(StreamReplayer, HoldoverCrossesTwoChunkBoundaries) {
  // (2,3) has no slot until chunk 3; (1,17) runs off the epoch lines of
  // chunks 1 and 2. Both are sighted during chunk 1.
  const auto bytes = record_stream(
      {{true, false, 1, 5}, {true, false, 1, 7},
       {true, false, 1, 11}, {true, false, 1, 13},
       {true, false, 2, 3}, {true, false, 1, 17}},
      /*chunk_target=*/2);
  StreamReplayer replayer({0, 1}, bytes);
  replayer.sight({2, 3});
  for (const std::uint64_t c : {5u, 7u, 11u, 13u, 17u}) replayer.sight({1, c});
  std::vector<minimpi::Candidate> cands = {candidate(2, 3, false)};
  for (const std::uint64_t c : {5u, 7u, 11u, 13u, 17u})
    cands.push_back(candidate(1, c, false));

  for (const std::uint64_t c : {5u, 7u, 11u, 13u})
    expect_delivers(replayer, cands, {1, c});
  EXPECT_EQ(replayer.stats().chunks, 3u);
  expect_delivers(replayer, cands, {2, 3});
  expect_delivers(replayer, cands, {1, 17});
  EXPECT_TRUE(replayer.exhausted());
}

TEST(StreamReplayer, SenderAbsentFromTheNextChunk) {
  // Sender 2 holds a slot in chunks 1 and 3 but not in chunk 2; its
  // chunk-3 message, sighted during chunk 2, must wait for chunk 3.
  const auto bytes = record_stream(
      {{true, false, 1, 5}, {true, false, 2, 6},
       {true, false, 1, 9}, {true, false, 1, 10},
       {true, false, 2, 20}, {true, false, 1, 21}},
      /*chunk_target=*/2);
  StreamReplayer replayer({0, 1}, bytes);
  replayer.sight({2, 6});
  replayer.sight({1, 5});
  expect_delivers(replayer, {candidate(2, 6, false), candidate(1, 5, false)},
                  {1, 5});
  expect_delivers(replayer, {candidate(2, 6, false)}, {2, 6});
  ASSERT_EQ(replayer.stats().chunks, 2u);

  replayer.sight({2, 20});
  // Chunk 2's first message has not arrived: (2,20) must not stand in.
  const std::vector<minimpi::Candidate> early = {candidate(2, 20, false)};
  EXPECT_EQ(replayer.decide(minimpi::MFKind::kWaitany, early).kind,
            StreamReplayer::Decision::Kind::kBlock);
  replayer.sight({1, 9});
  replayer.sight({1, 10});
  const std::vector<minimpi::Candidate> cands = {
      candidate(2, 20, false), candidate(1, 9, false),
      candidate(1, 10, false)};
  expect_delivers(replayer, cands, {1, 9});
  expect_delivers(replayer, cands, {1, 10});
  ASSERT_EQ(replayer.stats().chunks, 3u);
  replayer.sight({1, 21});
  expect_delivers(replayer, {candidate(1, 21, false), candidate(2, 20, false)},
                  {2, 20});
  expect_delivers(replayer, {candidate(1, 21, false)}, {1, 21});
  EXPECT_TRUE(replayer.exhausted());
}

TEST(StreamReplayerDeathTest, ZeroCountUnmatchedRunIsACorruptChunk) {
  // A well-formed frame whose only unmatched run holds zero tests. The
  // decoder must reject it: a gate that accepted it would answer "no
  // match" on every call while the recorded message sits available.
  const std::vector<ReceiveEvent> events = {{true, false, 1, 5}};
  record::CdcChunk chunk = record::encode_chunk(record::build_tables(events));
  chunk.unmatched = {record::UnmatchedRun{0, 0}};
  support::ByteWriter payload;
  record::write_chunk(payload, chunk);
  FrameJob job;
  job.codec = static_cast<std::uint8_t>(RecordCodec::kCdcFull);
  job.payload = std::move(payload).take();
  const std::vector<std::uint8_t> bytes = encode_frame(job);
  EXPECT_DEATH({ StreamReplayer replayer({0, 1}, bytes); },
               "corrupt CDC chunk during replay");
}

}  // namespace
}  // namespace cdc::tool
