// Microbenchmarks of the CDC building blocks (google-benchmark).
//
// Covers the §6.2 recording rate (BM_RecordPipeline<kCdcFull> runs the
// StreamRecorder that Recorder uses, buffering plus chunk encode, against
// the paper's 331K events/s recording rate and 258 events/s application
// rate), the §4.1 fast edit-distance algorithm, LP encoding, the DEFLATE
// entropy stage, the end-to-end chunk encode path, and the per-event
// record/replay hook path of one stream.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <queue>
#include <string_view>
#include <vector>

#include "compress/crc32.h"
#include "compress/deflate.h"
#include "compress/lz77.h"
#include "minimpi/event_heap.h"
#include "record/baseline.h"
#include "store/mpmc_queue.h"
#include "record/chunk.h"
#include "record/edit_distance.h"
#include "record/fast_permutation.h"
#include "record/lp.h"
#include "record/sender_slots.h"
#include "record/tables.h"
#include "runtime/storage.h"
#include "support/rng.h"
#include "tool/frame.h"
#include "tool/stream_recorder.h"
#include "tool/stream_replayer.h"

namespace {

using namespace cdc;

// --- inputs ---------------------------------------------------------------

/// A permutation of {0..n-1} with roughly `percent` of elements moved by
/// local swaps — the near-reference-order streams of Figure 14.
std::vector<std::uint32_t> near_sorted_permutation(std::size_t n,
                                                   int percent) {
  std::vector<std::uint32_t> b(n);
  std::iota(b.begin(), b.end(), 0u);
  support::Xoshiro256 rng(42);
  const std::size_t swaps = n * static_cast<std::size_t>(percent) / 200;
  for (std::size_t i = 0; i < swaps; ++i) {
    const std::size_t j = rng.bounded(n - 1);
    std::swap(b[j], b[j + 1]);
  }
  return b;
}

std::vector<record::ReceiveEvent> mcb_like_events(std::size_t n) {
  support::Xoshiro256 rng(9);
  std::vector<record::ReceiveEvent> events;
  std::vector<std::uint64_t> clocks(4, 1);
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.3) events.push_back({false, false, -1, 0});
    const auto s = static_cast<std::int32_t>(rng.bounded(4));
    clocks[static_cast<std::size_t>(s)] += 1 + rng.bounded(4);
    events.push_back({true, false, s, clocks[static_cast<std::size_t>(s)]});
  }
  return events;
}

// --- §4.1 edit distance -----------------------------------------------------

void BM_PermutationEncode(benchmark::State& state) {
  const auto b = near_sorted_permutation(
      static_cast<std::size_t>(state.range(0)),
      static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(record::encode_permutation(b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["moved_pct"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_PermutationEncode)
    ->Args({4096, 0})
    ->Args({4096, 10})
    ->Args({4096, 30})
    ->Args({4096, 60})
    ->Args({65536, 30});

void BM_FastPermutationEncode(benchmark::State& state) {
  const auto b = near_sorted_permutation(
      static_cast<std::size_t>(state.range(0)),
      static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(record::fast_encode_permutation(b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["moved_pct"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_FastPermutationEncode)
    ->Args({4096, 30})
    ->Args({65536, 30})
    ->Args({1 << 20, 30});

void BM_FastPermutationDecode(benchmark::State& state) {
  const auto b = near_sorted_permutation(
      static_cast<std::size_t>(state.range(0)), 30);
  const auto ops = record::fast_encode_permutation(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(record::fast_apply_moves(b.size(), ops));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FastPermutationDecode)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_PermutationDecode(benchmark::State& state) {
  const auto b = near_sorted_permutation(
      static_cast<std::size_t>(state.range(0)), 30);
  const auto ops = record::encode_permutation(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(record::apply_moves(b.size(), ops));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PermutationDecode)->Arg(4096)->Arg(65536);

void BM_BandedEditDistance(benchmark::State& state) {
  const auto b = near_sorted_permutation(
      static_cast<std::size_t>(state.range(0)), 30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(record::banded_edit_distance(b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BandedEditDistance)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_DpEditDistance(benchmark::State& state) {
  // The O(N^2) reference the paper improves on — note the gap.
  const auto b = near_sorted_permutation(
      static_cast<std::size_t>(state.range(0)), 30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(record::dp_edit_distance(b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DpEditDistance)->Arg(512)->Arg(4096);

// --- §3.4 LP encoding -------------------------------------------------------

void BM_LpEncodeDecode(benchmark::State& state) {
  std::vector<std::int64_t> xs(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<std::int64_t>(3 * i + (i % 7 == 0));
  for (auto _ : state) {
    auto encoded = record::lp_encode(xs);
    benchmark::DoNotOptimize(record::lp_decode(encoded));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LpEncodeDecode)->Arg(4096)->Arg(65536);

// --- entropy stage ----------------------------------------------------------

/// Record-like corpus shared by the codec benchmarks: near-zero
/// varint-heavy bytes, like serialized CDC chunks.
std::vector<std::uint8_t> record_like_bytes(std::size_t n) {
  support::Xoshiro256 rng(3);
  std::vector<std::uint8_t> input(n);
  for (auto& byte : input)
    byte = rng.uniform() < 0.85 ? 0 : static_cast<std::uint8_t>(
                                          rng.bounded(6));
  return input;
}

void BM_Crc32(benchmark::State& state) {
  // The sliced (16 x 256-table) CRC on the gzip trailer path. Seed
  // baseline (bytewise, this machine): ~363 MB/s.
  const auto input =
      record_like_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::crc32(input));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1 << 14)->Arg(1 << 20);

void BM_Crc32Bytewise(benchmark::State& state) {
  // The seed's one-table bytewise loop, kept as the comparison point.
  const auto input =
      record_like_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compress::crc32_update_bytewise(0, input));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Bytewise)->Arg(1 << 14)->Arg(1 << 20);

void BM_Lz77Tokenize(benchmark::State& state) {
  // The match-finder alone (no entropy stage), per level preset, with a
  // recycled workspace and token buffer as on the deflate hot path.
  const auto level = static_cast<compress::DeflateLevel>(state.range(1));
  const auto input =
      record_like_bytes(static_cast<std::size_t>(state.range(0)));
  const compress::Lz77Params params = compress::lz77_params_for(level);
  compress::Lz77Workspace workspace;
  std::vector<compress::Lz77Token> tokens;
  for (auto _ : state) {
    compress::lz77_tokenize_into(workspace, input, params, tokens);
    benchmark::DoNotOptimize(tokens.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(std::string(compress::to_string(level)));
}
BENCHMARK(BM_Lz77Tokenize)
    ->Args({1 << 18, static_cast<int>(compress::DeflateLevel::kFast)})
    ->Args({1 << 18, static_cast<int>(compress::DeflateLevel::kDefault)})
    ->Args({1 << 18, static_cast<int>(compress::DeflateLevel::kBest)});

void BM_DeflateLevels(benchmark::State& state) {
  // Full DEFLATE per level on the record-like corpus. Seed baselines
  // (this machine, single level == today's default): fast 30.8 MB/s
  // ratio 5.59, default 7.8 MB/s ratio 6.56, best 1.5 MB/s ratio 6.92.
  const auto level = static_cast<compress::DeflateLevel>(state.range(1));
  const auto input =
      record_like_bytes(static_cast<std::size_t>(state.range(0)));
  std::size_t compressed = 0;
  for (auto _ : state) {
    const auto out = compress::deflate_compress(input, level);
    compressed = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.counters["ratio"] =
      static_cast<double>(state.range(0)) / static_cast<double>(compressed);
  state.SetLabel(std::string(compress::to_string(level)));
}
BENCHMARK(BM_DeflateLevels)
    ->Args({1 << 18, static_cast<int>(compress::DeflateLevel::kFast)})
    ->Args({1 << 18, static_cast<int>(compress::DeflateLevel::kDefault)})
    ->Args({1 << 18, static_cast<int>(compress::DeflateLevel::kBest)});

void BM_GzipLevels(benchmark::State& state) {
  // gzip wrapper (DEFLATE + CRC32 + trailer) per level, with buffer reuse.
  const auto level = static_cast<compress::DeflateLevel>(state.range(1));
  const auto input =
      record_like_bytes(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> reuse;
  std::size_t compressed = 0;
  for (auto _ : state) {
    auto out = compress::gzip_compress(input, level, std::move(reuse));
    compressed = out.size();
    benchmark::DoNotOptimize(out.data());
    reuse = std::move(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.counters["ratio"] =
      static_cast<double>(state.range(0)) / static_cast<double>(compressed);
  state.SetLabel(std::string(compress::to_string(level)));
}
BENCHMARK(BM_GzipLevels)
    ->Args({1 << 18, static_cast<int>(compress::DeflateLevel::kFast)})
    ->Args({1 << 18, static_cast<int>(compress::DeflateLevel::kDefault)})
    ->Args({1 << 18, static_cast<int>(compress::DeflateLevel::kBest)});

void BM_DeflateRecordLike(benchmark::State& state) {
  // Near-zero varint-heavy bytes, like serialized CDC chunks.
  support::Xoshiro256 rng(3);
  std::vector<std::uint8_t> input(
      static_cast<std::size_t>(state.range(0)));
  for (auto& byte : input)
    byte = rng.uniform() < 0.85 ? 0 : static_cast<std::uint8_t>(
                                          rng.bounded(6));
  std::size_t compressed = 0;
  for (auto _ : state) {
    const auto out = compress::deflate_compress(input);
    compressed = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.counters["ratio"] =
      static_cast<double>(state.range(0)) / static_cast<double>(compressed);
}
BENCHMARK(BM_DeflateRecordLike)->Arg(1 << 14)->Arg(1 << 18);

void BM_Inflate(benchmark::State& state) {
  support::Xoshiro256 rng(4);
  std::vector<std::uint8_t> input(
      static_cast<std::size_t>(state.range(0)));
  for (auto& byte : input)
    byte = static_cast<std::uint8_t>(rng.bounded(4));
  const auto compressed = compress::deflate_compress(input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::deflate_decompress(compressed));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Inflate)->Arg(1 << 14)->Arg(1 << 18);

// --- record pipeline --------------------------------------------------------

template <tool::RecordCodec Codec>
void BM_RecordPipeline(benchmark::State& state) {
  const auto events =
      mcb_like_events(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    runtime::CountingStore store;
    tool::ToolOptions options;
    options.codec = Codec;
    tool::StreamRecorder recorder({0, 0}, options);
    for (const auto& e : events) {
      if (e.flag) {
        recorder.on_delivered(e);
      } else {
        recorder.on_unmatched_test();
      }
      recorder.flush_if_due(store);
    }
    recorder.finalize(store);
    benchmark::DoNotOptimize(store.total_bytes());
  }
  // events/sec — compare against the paper's 331K events/s recording rate.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_RecordPipeline<tool::RecordCodec::kBaselineRaw>)->Arg(100000);
BENCHMARK(BM_RecordPipeline<tool::RecordCodec::kBaselineGzip>)->Arg(100000);
BENCHMARK(BM_RecordPipeline<tool::RecordCodec::kCdcRe>)->Arg(100000);
BENCHMARK(BM_RecordPipeline<tool::RecordCodec::kCdcFull>)->Arg(100000);

void BM_BaselineSerialize(benchmark::State& state) {
  const auto rows = record::to_rows(
      mcb_like_events(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(record::baseline_serialize(rows));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_BaselineSerialize)->Arg(100000);

// --- src/minimpi/ event queue -------------------------------------------------

/// The key shape of the simulator's events: (time, seq) with a strict
/// total order, pushed and popped in the discrete-event hot loop.
struct QueueEvent {
  double time = 0.0;
  std::uint64_t seq = 0;
};
struct QueueEventBefore {
  bool operator()(const QueueEvent& a, const QueueEvent& b) const noexcept {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
};

/// Steady-state churn at a backlog of `hold` pending events: pop the
/// minimum, schedule a successor — the simulator's per-event cost.
/// EventHeap is the reserve-ahead binary heap the simulator uses
/// (minimpi/event_heap.h); BM_EventQueuePriorityQueue is the
/// std::priority_queue it replaced.
void BM_EventQueue(benchmark::State& state) {
  const auto hold = static_cast<std::size_t>(state.range(0));
  minimpi::EventHeap<QueueEvent, QueueEventBefore> heap;
  heap.reserve(hold);
  support::Xoshiro256 rng(7);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < hold; ++i) heap.push({rng.uniform(), seq++});
  for (auto _ : state) {
    QueueEvent ev = heap.pop();
    ev.time += rng.uniform() * 0.01;
    ev.seq = seq++;
    heap.push(ev);
    benchmark::DoNotOptimize(heap.top());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue)->Arg(64)->Arg(4096)->Arg(65536);

void BM_EventQueuePriorityQueue(benchmark::State& state) {
  const auto hold = static_cast<std::size_t>(state.range(0));
  // Min-queue: std::priority_queue pops the Compare-largest element.
  const auto after = [](const QueueEvent& a, const QueueEvent& b) {
    return QueueEventBefore{}(b, a);
  };
  std::priority_queue<QueueEvent, std::vector<QueueEvent>, decltype(after)>
      queue(after);
  support::Xoshiro256 rng(7);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < hold; ++i) queue.push({rng.uniform(), seq++});
  for (auto _ : state) {
    QueueEvent ev = queue.top();
    queue.pop();
    ev.time += rng.uniform() * 0.01;
    ev.seq = seq++;
    queue.push(ev);
    benchmark::DoNotOptimize(queue.top());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePriorityQueue)->Arg(64)->Arg(4096)->Arg(65536);

/// One simulated run's fill-then-drain, queue reused across runs: the
/// reserve-ahead heap keeps its backing vector (clear() holds capacity),
/// so iterations after the first are allocation-free.
void BM_EventQueueFillDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  minimpi::EventHeap<QueueEvent, QueueEventBefore> heap;
  heap.reserve(n);
  support::Xoshiro256 rng(11);
  for (auto _ : state) {
    heap.clear();
    for (std::size_t i = 0; i < n; ++i) heap.push({rng.uniform(), i});
    double last = 0.0;
    while (!heap.empty()) last = heap.pop().time;
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueFillDrain)->Arg(4096)->Arg(65536);

// --- src/store/ pipeline ------------------------------------------------------

void BM_MpmcQueueThroughput(benchmark::State& state) {
  store::BoundedMpmcQueue<int> queue(1 << 10);
  int out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.try_push(1));
    benchmark::DoNotOptimize(queue.pop(out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpmcQueueThroughput);

// --- chunk serialization ------------------------------------------------------

void BM_ChunkSerializeParse(benchmark::State& state) {
  const auto events =
      mcb_like_events(static_cast<std::size_t>(state.range(0)));
  const auto tables = record::build_tables(events);
  const auto chunk = record::encode_chunk(tables);
  for (auto _ : state) {
    support::ByteWriter writer;
    record::write_chunk(writer, chunk);
    support::ByteReader reader(writer.view());
    benchmark::DoNotOptimize(record::read_chunk(reader));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChunkSerializeParse)->Arg(4096);

/// One chunk's events: `n` deliveries from `senders` senders on a shared
/// tick (strictly increasing per sender), about 30% of them swapped with
/// their neighbour, an unmatched test before about one in four and a
/// with_next mark on about one in sixteen.
std::vector<record::ReceiveEvent> chunk_events(int senders, std::size_t n) {
  support::Xoshiro256 rng(23);
  std::vector<std::uint64_t> last(static_cast<std::size_t>(senders), 0);
  std::uint64_t tick = 0;
  std::vector<record::ReceiveEvent> delivered;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = rng.bounded(static_cast<std::uint64_t>(senders));
    tick += 1 + rng.bounded(3);
    last[s] = std::max(last[s] + 1, tick);
    delivered.push_back({true, rng.bounded(16) == 0,
                         static_cast<std::int32_t>(s), last[s]});
  }
  for (std::size_t i = 0; i + 1 < n; ++i)
    if (rng.bounded(20) < 3) std::swap(delivered[i], delivered[i + 1]);
  std::vector<record::ReceiveEvent> events;
  for (const auto& e : delivered) {
    if (rng.bounded(4) == 0) events.push_back({false, false, -1, 0});
    events.push_back(e);
  }
  return events;
}

/// The whole per-chunk encode of StreamRecorder::flush (RE -> PE -> LP ->
/// DEFLATE frame): an mcb-deep-like 4,096-delivery chunk from 4 senders
/// and an mcb-wide-like 186-delivery chunk from 768.
void BM_EncodeChunk(benchmark::State& state) {
  const auto events = chunk_events(static_cast<int>(state.range(0)),
                                   static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    const auto tables = record::build_tables(events);
    const auto chunk = record::encode_chunk(tables);
    support::ByteWriter payload;
    record::write_chunk(payload, chunk);
    tool::FrameJob job;
    job.codec = static_cast<std::uint8_t>(tool::RecordCodec::kCdcFull);
    job.payload = std::move(payload).take();
    benchmark::DoNotOptimize(tool::encode_frame(job));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_EncodeChunk)->Args({4, 4096})->Args({768, 186});

/// Sender slots for `n` entries drawn from `range` ids: the mcb-deep and
/// mcb-wide chunk shapes, both sides of the table's cutoff at 108 entries
/// (range 16 x 108), and ids spread over a million values.
void BM_SenderSlots(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  support::Xoshiro256 rng(29);
  std::vector<std::int32_t> senders(n);
  for (auto& s : senders)
    s = static_cast<std::int32_t>(
        rng.bounded(static_cast<std::uint64_t>(state.range(1))));
  // The first and last entries hold the range's ends, so it is exact.
  senders[0] = static_cast<std::int32_t>(state.range(1) - 1);
  senders[n - 1] = 0;
  record::detail::SenderSlots slots;
  for (auto _ : state) {
    record::detail::assign_sender_slots(
        n, [&](std::size_t i) { return senders[i]; }, slots);
    benchmark::DoNotOptimize(slots.slot.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SenderSlots)
    ->Args({4096, 16})
    ->Args({108, 768})
    ->Args({108, 1728})
    ->Args({108, 1729})
    ->Args({108, 1 << 20});

// --- per-event tool path -------------------------------------------------

/// One callsite's receive stream: 4,096 deliveries from `senders` senders
/// with an unmatched test before about one delivery in four. Clocks follow
/// a global tick (strictly increasing per sender), so the observed order
/// stays close to the reference order, as in MCB.
std::vector<record::ReceiveEvent> tool_stream_events(int senders) {
  support::Xoshiro256 rng(17);
  std::vector<record::ReceiveEvent> events;
  std::vector<std::uint64_t> last(static_cast<std::size_t>(senders), 0);
  std::uint64_t tick = 0;
  for (int i = 0; i < 4096; ++i) {
    if (rng.bounded(4) == 0) events.push_back({false, false, -1, 0});
    const std::size_t s = rng.bounded(static_cast<std::uint64_t>(senders));
    tick += 1 + rng.bounded(3);
    last[s] = std::max(last[s] + 1, tick);
    events.push_back({true, false, static_cast<std::int32_t>(s), last[s]});
  }
  return events;
}

/// Messages are sighted this many deliveries ahead of their delivery.
constexpr std::size_t kSightAhead = 8;

std::vector<clock::MessageId> matched_ids(
    const std::vector<record::ReceiveEvent>& events) {
  std::vector<clock::MessageId> ids;
  for (const auto& e : events)
    if (e.flag) ids.push_back(e.id());
  return ids;
}

/// Replay gate: sight -> decide -> confirm over a recorded stream (chunks
/// of 1,024 deliveries, so sightings run ahead across epoch lines).
void BM_StreamReplayerGate(benchmark::State& state) {
  const auto events = tool_stream_events(static_cast<int>(state.range(0)));
  const auto ids = matched_ids(events);
  runtime::MemoryStore store;
  {
    tool::ToolOptions options;
    options.chunk_target = 1024;
    tool::StreamRecorder recorder({0, 1}, options);
    for (const auto& e : events) {
      if (e.flag) {
        recorder.on_delivered(e);
      } else {
        recorder.on_unmatched_test();
      }
      recorder.flush_if_due(store);
    }
    recorder.finalize(store);
  }
  const std::vector<std::uint8_t> bytes = store.read({0, 1});
  std::vector<minimpi::Candidate> window;
  minimpi::Completion done[1];
  for (auto _ : state) {
    state.PauseTiming();
    tool::StreamReplayer replayer({0, 1}, bytes);
    state.ResumeTiming();
    window.clear();
    std::size_t sighted = 0;
    std::size_t delivered = 0;
    for (const auto& e : events) {
      if (!e.flag) {
        if (replayer.decide(minimpi::MFKind::kTest, window).kind !=
            tool::StreamReplayer::Decision::Kind::kNoMatch) {
          state.SkipWithError("recorded unmatched test not replayed");
          return;
        }
        replayer.confirm_unmatched();
        continue;
      }
      for (; sighted < ids.size() && sighted <= delivered + kSightAhead;
           ++sighted) {
        replayer.sight(ids[sighted]);
        minimpi::Candidate c;
        c.source = ids[sighted].sender;
        c.piggyback = ids[sighted].clock;
        window.push_back(c);
      }
      const auto& decision = replayer.decide(minimpi::MFKind::kTest, window);
      if (decision.kind != tool::StreamReplayer::Decision::Kind::kDeliver) {
        state.SkipWithError("recorded delivery not released");
        return;
      }
      done[0].source = decision.messages[0].sender;
      done[0].piggyback = decision.messages[0].clock;
      replayer.confirm_delivered(done);
      window.erase(window.begin());  // sighted in delivery order
      ++delivered;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_StreamReplayerGate)->Arg(4)->Arg(768);

/// Record hooks: on_candidate (sightings run ahead), on_delivered and
/// on_unmatched_test of one stream, without flushing.
void BM_StreamRecorderHooks(benchmark::State& state) {
  const auto events = tool_stream_events(static_cast<int>(state.range(0)));
  const auto ids = matched_ids(events);
  for (auto _ : state) {
    tool::StreamRecorder recorder({0, 1}, tool::ToolOptions{});
    std::size_t sighted = 0;
    std::size_t delivered = 0;
    for (const auto& e : events) {
      if (!e.flag) {
        recorder.on_unmatched_test();
        continue;
      }
      for (; sighted < ids.size() && sighted <= delivered + kSightAhead;
           ++sighted)
        recorder.on_candidate(ids[sighted]);
      recorder.on_delivered(e);
      ++delivered;
    }
    benchmark::DoNotOptimize(recorder.stats().matched_events);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_StreamRecorderHooks)->Arg(4)->Arg(768);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults to a machine-readable JSON dump
// (BENCH_micro.json) when the caller did not pick an output file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    has_out |= std::string_view(argv[i]).starts_with("--benchmark_out=");
  std::string default_out = "--benchmark_out=BENCH_micro.json";
  std::string default_fmt = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(default_out.data());
    args.push_back(default_fmt.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
