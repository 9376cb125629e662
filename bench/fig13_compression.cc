// Figure 13: total compressed record sizes on MCB.
//
// Paper (3,072 processes, 12.3 s, ~9.7M receive events):
//   w/o compression ~197 MB | gzip | CDC (RE) | CDC (RE+PE+LPE) | CDC,
// with CDC 5.7x smaller than gzip, ~44x smaller than raw, and an average
// of 0.51 bytes per receive event. This bench runs the identical MCB
// execution (same noise seed → identical traffic) once per codec and
// reports the same rows. Absolute sizes differ from the paper (different
// machine, different MCB implementation); the ordering and rough factors
// are the reproduction target.
//
// After the codec table, the bench times DEFLATE per level on a seeded
// record-like corpus; both land in BENCH_compress.json (see below).
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "compress/crc32.h"
#include "compress/deflate.h"
#include "obs/stats.h"
#include "runtime/storage.h"
#include "support/rng.h"
#include "tool/recorder.h"

namespace {

using namespace cdc;

struct Row {
  const char* label;
  cdc::tool::RecordCodec codec;
  bool identify_callsites;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
};

using bench::Clock;
using bench::seconds_since;

}  // namespace

int main() {
  using namespace cdc;
  const int default_ranks = bench::full_scale() ? 3072 : 1536;
  const int ranks = bench::env_int("CDC_RANKS", default_ranks);
  bench::print_machine_banner(
      "Figure 13 — total compressed record sizes on MCB", ranks);

  std::vector<Row> rows = {
      {"w/o Compression", tool::RecordCodec::kBaselineRaw, true},
      {"gzip", tool::RecordCodec::kBaselineGzip, true},
      {"CDC (RE)", tool::RecordCodec::kCdcRe, true},
      {"CDC (RE+PE+LPE)", tool::RecordCodec::kCdcFull, false},
      {"CDC", tool::RecordCodec::kCdcFull, true},
  };

  for (Row& row : rows) {
    runtime::CountingStore store;
    tool::ToolOptions options;
    options.codec = row.codec;
    options.identify_callsites = row.identify_callsites;
    tool::Recorder recorder(ranks, &store, options);
    minimpi::Simulator sim(bench::sim_config(ranks), &recorder);
    apps::run_mcb(sim, bench::mcb_config(ranks));
    recorder.finalize();
    row.bytes = store.total_bytes();
    row.events = recorder.totals().matched_events;
    std::fprintf(stderr, "  [measured %-16s]\n", row.label);
  }

  const double raw = static_cast<double>(rows[0].bytes);
  const double gz = static_cast<double>(rows[1].bytes);
  std::printf("receive events per run: %llu\n\n",
              static_cast<unsigned long long>(rows[0].events));
  std::printf("%-18s %12s %14s %10s %10s\n", "method", "record size",
              "bytes/event", "vs raw", "vs gzip");
  for (const Row& row : rows) {
    const double bytes = static_cast<double>(row.bytes);
    std::printf("%-18s %12s %14.3f %9.1fx %9.2fx\n", row.label,
                obs::format_bytes(bytes).c_str(),
                bytes / static_cast<double>(row.events), raw / bytes,
                gz / bytes);
  }
  const double cdc = static_cast<double>(rows.back().bytes);
  std::printf(
      "\npaper shape: raw >> gzip > CDC(RE) > CDC(RE+PE+LPE) >= CDC;\n"
      "paper factors at 3,072 procs: CDC ~44x vs raw, ~5.7x vs gzip,\n"
      "0.51 bytes/event. Measured here: %.1fx vs raw, %.2fx vs gzip,\n"
      "%.3f bytes/event.\n",
      raw / cdc, gz / cdc,
      cdc / static_cast<double>(rows.back().events));

  // --- leveled codec fast path (BENCH_compress.json) ---------------------
  // Per-level DEFLATE wall time + ratio on a deterministic seeded corpus.
  // The corpus depends only on the fixed RNG seed and the compressor is
  // deterministic per (input, level), so `compressed_bytes` is
  // machine-independent — which is what lets the CI perf-smoke job diff
  // it against a committed baseline (bench/check_baseline.py).
  // Seed-era numbers (this repo before the leveled fast path, one level
  // == today's default) are embedded alongside so regressions read
  // against both.
  struct LevelRow {
    compress::DeflateLevel level;
    double seed_mb_per_s;  ///< seed-era throughput on this corpus
    double seed_ratio;
    double seconds = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<LevelRow> levels = {
      {compress::DeflateLevel::kFast, 30.81, 5.591},
      {compress::DeflateLevel::kDefault, 7.82, 6.555},
      {compress::DeflateLevel::kBest, 1.48, 6.924},
  };
  constexpr std::size_t kCorpusBytes = 4u << 20;
  constexpr double kSeedCrcMbPerS = 362.5;
  std::vector<std::uint8_t> corpus(kCorpusBytes);
  {
    support::Xoshiro256 rng(3);
    for (auto& byte : corpus)
      byte = rng.uniform() < 0.85 ? 0 : static_cast<std::uint8_t>(
                                            rng.bounded(6));
  }
  const double corpus_mb = static_cast<double>(kCorpusBytes) / (1u << 20);

  double crc_seconds = 0;
  {
    constexpr int kReps = 8;
    std::uint32_t crc_accum = 0;
    const auto start = Clock::now();
    for (int i = 0; i < kReps; ++i)
      crc_accum ^= compress::crc32(corpus);
    crc_seconds = seconds_since(start, "bench.fig13.crc_ns") / kReps;
    // Keep the loop observable without dragging in a benchmark dependency.
    if (crc_accum == 0xdeadbeef) std::printf("(crc collision)\n");
  }
  const double crc_mb_per_s = corpus_mb / crc_seconds;

  std::printf("\ndeflate levels on a deterministic %s record-like corpus "
              "(seed-era default: %.2f MB/s, ratio %.3f):\n",
              obs::format_bytes(
                  static_cast<double>(kCorpusBytes)).c_str(),
              levels[1].seed_mb_per_s, levels[1].seed_ratio);
  std::printf("%-10s %10s %10s %12s %10s\n", "level", "MB/s", "ratio",
              "bytes", "vs seed");
  std::vector<std::uint8_t> reuse;
  for (LevelRow& row : levels) {
    const auto start = Clock::now();
    auto out = compress::deflate_compress(corpus, row.level,
                                          std::move(reuse));
    row.seconds = seconds_since(start, "bench.fig13.deflate_level_ns");
    row.bytes = out.size();
    reuse = std::move(out);
    std::printf("%-10.*s %10.2f %10.3f %12llu %9.2fx\n",
                static_cast<int>(compress::to_string(row.level).size()),
                compress::to_string(row.level).data(),
                corpus_mb / row.seconds,
                static_cast<double>(kCorpusBytes) /
                    static_cast<double>(row.bytes),
                static_cast<unsigned long long>(row.bytes),
                (corpus_mb / row.seconds) / row.seed_mb_per_s);
  }
  std::printf("crc32: %.0f MB/s (seed bytewise: %.1f MB/s, %.1fx)\n",
              crc_mb_per_s, kSeedCrcMbPerS, crc_mb_per_s / kSeedCrcMbPerS);

  obs::JsonWriter lw;
  lw.begin_object();
  lw.field("bench", "fig13_compression_levels");
  lw.field("corpus_bytes", static_cast<std::uint64_t>(kCorpusBytes));
  lw.field("corpus_seed", 3);
  lw.key("crc32").begin_object();
  lw.field("mb_per_s", crc_mb_per_s);
  lw.field("seed_mb_per_s", kSeedCrcMbPerS);
  lw.field("speedup_vs_seed", crc_mb_per_s / kSeedCrcMbPerS);
  lw.end_object();
  lw.key("levels").begin_array();
  for (const LevelRow& row : levels) {
    const double mb_per_s = corpus_mb / row.seconds;
    lw.begin_object();
    lw.field("level", std::string(compress::to_string(row.level)));
    lw.field("seconds", row.seconds);
    lw.field("mb_per_s", mb_per_s);
    lw.field("compressed_bytes", row.bytes);
    lw.field("ratio", static_cast<double>(kCorpusBytes) /
                          static_cast<double>(row.bytes));
    lw.field("seed_mb_per_s", row.seed_mb_per_s);
    lw.field("seed_ratio", row.seed_ratio);
    lw.field("speedup_vs_seed", mb_per_s / row.seed_mb_per_s);
    lw.end_object();
  }
  lw.end_array();
  // The Figure 13 table above, machine-readable.
  lw.field("ranks", ranks);
  lw.field("receive_events", rows[0].events);
  lw.key("codecs").begin_array();
  for (const Row& row : rows) {
    const double bytes = static_cast<double>(row.bytes);
    lw.begin_object();
    lw.field("label", row.label);
    lw.field("bytes", row.bytes);
    lw.field("bytes_per_event", bytes / static_cast<double>(row.events));
    lw.field("vs_raw", raw / bytes);
    lw.field("vs_gzip", gz / bytes);
    lw.end_object();
  }
  lw.end_array();
  lw.end_object();
  if (bench::write_bench_json("BENCH_compress.json", std::move(lw).take()))
    std::printf("wrote BENCH_compress.json\n");

  return (cdc < gz && gz < raw) ? 0 : 1;
}
