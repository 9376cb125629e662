// Figure 22 (this repo): decode-side throughput and epoch-index seeks.
//
// Two questions the replay path must answer well:
//   1. How fast is the batched inflate loop relative to the deflate
//      encoder at every effort level? (The decode fast path exists so
//      replay start-up is never compression-bound; the acceptance bar is
//      inflate comfortably faster than the same level's deflate.)
//   2. Is a windowed replay's seek O(window) — i.e. independent of where
//      the window starts in the record? The epoch index maps epoch -> frame
//      offset, so reading epochs [lo, lo+w) must cost the same whether lo
//      is at the front or the back of the record.
//
// Results land in BENCH_decode.json. The CI perf-smoke job gates the
// default level's *relative* decode throughput (inflate MB/s over deflate
// MB/s — the ratio cancels most machine variance) against the committed
// bench/decode_baseline.json via bench/check_baseline.py.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "compress/deflate.h"
#include "obs/stats.h"
#include "store/container_reader.h"
#include "store/container_store.h"
#include "support/rng.h"
#include "tool/options.h"
#include "tool/recorder.h"

namespace {

using namespace cdc;
using bench::Clock;
using bench::seconds_since;

struct LevelRow {
  compress::DeflateLevel level;
  double deflate_seconds = 0;
  double inflate_seconds = 0;
  std::uint64_t compressed_bytes = 0;
  bool decoded_ok = false;
};

struct WindowRow {
  std::uint64_t lo = 0;
  double seconds = 0;
  std::uint64_t bytes = 0;
};

}  // namespace

int main() {
  const int ranks = bench::env_int("CDC_RANKS", bench::full_scale() ? 256 : 64);
  bench::print_machine_banner(
      "Figure 22 — decode throughput and epoch-index seek latency", ranks);

  // --- part 1: inflate vs deflate per level ------------------------------
  // The same deterministic record-like corpus fig13 compresses (seed 3,
  // 85% zeros), so the two benches describe the same workload from the two
  // sides of the codec. Min-of-reps timing keeps the gated ratio stable.
  constexpr std::size_t kCorpusBytes = 4u << 20;
  constexpr int kEncodeReps = 3;
  constexpr int kDecodeReps = 8;
  std::vector<std::uint8_t> corpus(kCorpusBytes);
  {
    support::Xoshiro256 rng(3);
    for (auto& byte : corpus)
      byte = rng.uniform() < 0.85 ? 0 : static_cast<std::uint8_t>(
                                            rng.bounded(6));
  }
  const double corpus_mb = static_cast<double>(kCorpusBytes) / (1u << 20);

  std::vector<LevelRow> levels = {{compress::DeflateLevel::kFast},
                                  {compress::DeflateLevel::kDefault},
                                  {compress::DeflateLevel::kBest}};
  std::printf("codec on a deterministic %s record-like corpus "
              "(min of %d encode / %d decode passes):\n",
              obs::format_bytes(
                  static_cast<double>(kCorpusBytes)).c_str(),
              kEncodeReps, kDecodeReps);
  std::printf("%-10s %14s %14s %14s\n", "level", "deflate MB/s",
              "inflate MB/s", "inflate/deflate");
  for (LevelRow& row : levels) {
    std::vector<std::uint8_t> encoded;
    row.deflate_seconds = 1e30;
    for (int rep = 0; rep < kEncodeReps; ++rep) {
      const auto start = Clock::now();
      encoded = compress::deflate_compress(corpus, row.level,
                                           std::move(encoded));
      row.deflate_seconds = std::min(
          row.deflate_seconds,
          seconds_since(start, "bench.fig22.deflate_ns"));
    }
    row.compressed_bytes = encoded.size();

    row.decoded_ok = true;
    row.inflate_seconds = 1e30;
    std::vector<std::uint8_t> decoded;
    for (int rep = 0; rep < kDecodeReps; ++rep) {
      const auto start = Clock::now();
      auto out = compress::deflate_decompress(encoded, std::move(decoded));
      const double seconds =
          seconds_since(start, "bench.fig22.inflate_ns");
      if (!out || *out != corpus) {
        row.decoded_ok = false;
        decoded.clear();
        break;
      }
      row.inflate_seconds = std::min(row.inflate_seconds, seconds);
      decoded = std::move(*out);
    }
    std::printf("%-10.*s %14.2f %14.2f %14.2fx%s\n",
                static_cast<int>(compress::to_string(row.level).size()),
                compress::to_string(row.level).data(),
                corpus_mb / row.deflate_seconds,
                corpus_mb / row.inflate_seconds,
                row.deflate_seconds / row.inflate_seconds,
                row.decoded_ok ? "" : "  DECODE FAILED");
  }

  // --- part 2: seek latency vs window start ------------------------------
  // Record an MCB run into a sealed epoch-indexed container, then read a
  // one-epoch window of every stream at four starting positions spread
  // across the record. The epoch index makes each read O(window): the four
  // rows must cost the same regardless of lo, and far less than decoding
  // the whole record.
  const std::string container_path = "fig22_seek.cdcc";
  {
    store::ContainerStore container(container_path);
    tool::ToolOptions options;
    options.chunk_target = 128;
    tool::Recorder recorder(ranks, &container, options);
    minimpi::Simulator sim(bench::sim_config(ranks), &recorder);
    apps::run_mcb(sim, bench::mcb_config(ranks));
    recorder.finalize();
    container.seal();
  }
  std::string error;
  const auto reader = store::ContainerReader::open(container_path, &error);
  if (reader == nullptr || !reader->epoch_index_ok()) {
    std::fprintf(stderr, "fig22: container has no usable epoch index: %s\n",
                 error.c_str());
    return 1;
  }
  const std::vector<runtime::StreamKey> keys = reader->keys();
  std::uint64_t epochs = 0;
  std::uint64_t frame_bytes = 0;
  for (const runtime::StreamKey& key : keys)
    if (const store::StreamEpochIndex* index = reader->find_epochs(key))
      epochs = std::max(epochs,
                        static_cast<std::uint64_t>(index->epochs.size()));
  if (epochs < 4) {
    std::fprintf(stderr, "fig22: record too shallow to seek (%llu epochs)\n",
                 static_cast<unsigned long long>(epochs));
    return 1;
  }

  constexpr int kSeekReps = 32;
  double full_seconds = 1e30;
  for (int rep = 0; rep < 4; ++rep) {
    std::uint64_t bytes = 0;
    const auto start = Clock::now();
    for (const runtime::StreamKey& key : keys)
      bytes += reader->read_stream_window(key, 0, epochs).bytes.size();
    full_seconds = std::min(full_seconds,
                            seconds_since(start, "bench.fig22.full_read_ns"));
    frame_bytes = bytes;
  }

  std::vector<WindowRow> windows = {{0},
                                    {epochs / 4},
                                    {epochs / 2},
                                    {3 * epochs / 4}};
  for (WindowRow& row : windows) {
    row.seconds = 1e30;
    for (int rep = 0; rep < kSeekReps; ++rep) {
      std::uint64_t bytes = 0;
      const auto start = Clock::now();
      for (const runtime::StreamKey& key : keys) {
        const store::ContainerReader::WindowRead read =
            reader->read_stream_window(key, row.lo, row.lo + 1);
        if (!read.seeked && reader->find_epochs(key) != nullptr) {
          std::fprintf(stderr, "fig22: window read fell back to a "
                               "sequential scan\n");
          return 1;
        }
        bytes += read.bytes.size();
      }
      row.seconds = std::min(row.seconds,
                             seconds_since(start, "bench.fig22.seek_ns"));
      row.bytes = bytes;
    }
  }

  std::printf("\nepoch-index seeks over %zu streams, %llu epochs deep "
              "(%s framed; min of %d passes):\n",
              keys.size(), static_cast<unsigned long long>(epochs),
              obs::format_bytes(
                  static_cast<double>(frame_bytes)).c_str(),
              kSeekReps);
  std::printf("%-22s %12s %12s\n", "window", "seconds", "bytes read");
  std::printf("%-22s %12.6f %12s\n", "full record", full_seconds,
              obs::format_bytes(
                  static_cast<double>(frame_bytes)).c_str());
  double seek_min = 1e30;
  double seek_max = 0;
  for (const WindowRow& row : windows) {
    char label[32];
    std::snprintf(label, sizeof label, "epoch [%llu, %llu)",
                  static_cast<unsigned long long>(row.lo),
                  static_cast<unsigned long long>(row.lo + 1));
    std::printf("%-22s %12.6f %12s\n", label, row.seconds,
                obs::format_bytes(
                    static_cast<double>(row.bytes)).c_str());
    seek_min = std::min(seek_min, row.seconds);
    seek_max = std::max(seek_max, row.seconds);
  }
  const double spread = seek_max / seek_min;
  std::printf("seek spread (slowest/fastest start): %.2fx — the window's "
              "position in the record %s its cost\n",
              spread, spread < 2.0 ? "does not change" : "CHANGES");

  // --- machine-readable output ------------------------------------------
  obs::JsonWriter w;
  w.begin_object();
  w.field("bench", "fig22_decode_seek");
  w.field("corpus_bytes", static_cast<std::uint64_t>(kCorpusBytes));
  w.field("corpus_seed", 3);
  w.key("levels").begin_array();
  for (const LevelRow& row : levels) {
    const double deflate_mb_per_s = corpus_mb / row.deflate_seconds;
    const double inflate_mb_per_s = corpus_mb / row.inflate_seconds;
    w.begin_object();
    w.field("level", std::string(compress::to_string(row.level)));
    w.field("compressed_bytes", row.compressed_bytes);
    w.field("deflate_mb_per_s", deflate_mb_per_s);
    w.field("inflate_mb_per_s", inflate_mb_per_s);
    w.field("inflate_vs_deflate", inflate_mb_per_s / deflate_mb_per_s);
    w.field("decoded_ok", row.decoded_ok);
    w.end_object();
  }
  w.end_array();
  w.key("seek").begin_object();
  w.field("ranks", ranks);
  w.field("streams", keys.size());
  w.field("epochs", epochs);
  w.field("frame_bytes", frame_bytes);
  w.field("full_read_seconds", full_seconds);
  w.field("seek_spread", spread);
  w.key("windows").begin_array();
  for (const WindowRow& row : windows) {
    w.begin_object();
    w.field("lo", row.lo);
    w.field("seconds", row.seconds);
    w.field("bytes", row.bytes);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  if (bench::write_bench_json("BENCH_decode.json", std::move(w).take()))
    std::printf("\nwrote BENCH_decode.json\n");
  std::remove(container_path.c_str());

  bool ok = spread < 2.0;
  for (const LevelRow& row : levels)
    ok = ok && row.decoded_ok && row.inflate_seconds < row.deflate_seconds;
  return ok ? 0 : 1;
}
