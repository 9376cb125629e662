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
// On top of the codec table, the bench measures the src/store/ compression
// service on the very chunks this workload sealed: the frame jobs captured
// during the gzip and CDC runs are re-encoded inline and through a
// CompressionService with 1/2/4 workers. Results land in BENCH_store.json
// (machine-readable; the 4-worker row is the ISSUE acceptance number).
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "compress/crc32.h"
#include "compress/deflate.h"
#include "obs/stats.h"
#include "runtime/storage.h"
#include "store/compression_service.h"
#include "support/rng.h"
#include "tool/frame.h"
#include "tool/frame_sink.h"
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

/// Delegates to the inline path (so the codec table stays honest) while
/// keeping a copy of every sealed chunk for the throughput section.
class CapturingSink final : public tool::FrameSink {
 public:
  CapturingSink(runtime::RecordStore* store,
                std::vector<std::pair<runtime::StreamKey, tool::FrameJob>>*
                    jobs)
      : inner_(store), jobs_(jobs) {}

  void submit(const runtime::StreamKey& key, tool::FrameJob job) override {
    jobs_->emplace_back(key, job);
    inner_.submit(key, std::move(job));
  }

 private:
  tool::InlineFrameSink inner_;
  std::vector<std::pair<runtime::StreamKey, tool::FrameJob>>* jobs_;
};

using bench::Clock;
using bench::seconds_since;

struct ThroughputRow {
  std::size_t workers = 0;  ///< 0 = inline on the calling thread
  double seconds = 0;
  double mb_per_s = 0;
};

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

  // Chunks sealed by the gzip and CDC rows: the workload for the
  // compression-service throughput section below.
  std::vector<std::pair<runtime::StreamKey, tool::FrameJob>> jobs;

  for (Row& row : rows) {
    runtime::CountingStore store;
    tool::ToolOptions options;
    options.codec = row.codec;
    options.identify_callsites = row.identify_callsites;
    const bool capture = row.codec == tool::RecordCodec::kBaselineGzip ||
                         (row.codec == tool::RecordCodec::kCdcFull &&
                          row.identify_callsites);
    CapturingSink sink(&store, &jobs);
    tool::Recorder recorder(ranks, &store, options,
                            capture ? &sink : nullptr);
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

  // --- store/ compression-service throughput on the captured chunks ------
  const std::size_t cap = static_cast<std::size_t>(
      bench::env_int("CDC_STORE_JOBS", 2048));
  if (jobs.size() > cap) {
    // Keep an evenly spaced sample so the large/small chunk mix survives.
    std::vector<std::pair<runtime::StreamKey, tool::FrameJob>> sampled;
    sampled.reserve(cap);
    const std::size_t stride = jobs.size() / cap;
    for (std::size_t i = 0; i < jobs.size() && sampled.size() < cap;
         i += stride)
      sampled.push_back(jobs[i]);
    std::fprintf(stderr,
                 "  [store bench: sampled %zu of %zu captured chunks; "
                 "raise CDC_STORE_JOBS to use more]\n",
                 sampled.size(), jobs.size());
    jobs = std::move(sampled);
  }
  std::uint64_t job_raw_bytes = 0;
  for (const auto& [key, job] : jobs) job_raw_bytes += job.payload.size();
  const double job_mb =
      static_cast<double>(job_raw_bytes) / (1024.0 * 1024.0);

  std::printf("\nstore/ compression service on %zu sealed chunks "
              "(%s raw):\n",
              jobs.size(),
              obs::format_bytes(
                  static_cast<double>(job_raw_bytes)).c_str());
  std::printf("%-10s %10s %12s %10s\n", "path", "seconds", "MB/s",
              "speedup");

  std::vector<ThroughputRow> throughput;
  {  // inline reference: encode every chunk on this thread.
    runtime::CountingStore store;
    const auto start = Clock::now();
    for (const auto& [key, job] : jobs)
      store.append(key, tool::encode_frame(job));
    ThroughputRow row;
    row.workers = 0;
    row.seconds = seconds_since(start, "bench.fig13.inline_encode_ns");
    row.mb_per_s = job_mb / row.seconds;
    throughput.push_back(row);
  }
  for (const std::size_t workers : {1u, 2u, 4u}) {
    runtime::CountingStore store;
    store::CompressionService::Config config;
    config.workers = workers;
    const auto start = Clock::now();
    {
      store::CompressionService service(&store, config);
      for (const auto& [key, job] : jobs)
        service.submit(key, job.payload.size(),
                       [&job = job] { return tool::encode_frame(job); });
      service.drain();
    }
    ThroughputRow row;
    row.workers = workers;
    row.seconds = seconds_since(start, "bench.fig13.service_encode_ns");
    row.mb_per_s = job_mb / row.seconds;
    throughput.push_back(row);
  }
  const double inline_seconds = throughput.front().seconds;
  for (const ThroughputRow& row : throughput) {
    char label[32];
    if (row.workers == 0)
      std::snprintf(label, sizeof label, "inline");
    else
      std::snprintf(label, sizeof label, "%zu worker%s", row.workers,
                    row.workers == 1 ? "" : "s");
    std::printf("%-10s %10.4f %12.2f %9.2fx\n", label, row.seconds,
                row.mb_per_s, inline_seconds / row.seconds);
  }
  const double speedup_4x = inline_seconds / throughput.back().seconds;
  const unsigned cpus = std::thread::hardware_concurrency();
  if (cpus < 4)
    std::printf("(only %u hardware thread%s available — parallel speedup "
                "is core-limited on this machine)\n",
                cpus, cpus == 1 ? "" : "s");

  // --- machine-readable output (same keys as the fprintf original) ------
  const char* json_path = "BENCH_store.json";
  obs::JsonWriter w;
  w.begin_object();
  w.field("bench", "fig13_compression");
  w.field("ranks", ranks);
  w.field("receive_events", rows[0].events);
  w.key("codecs").begin_array();
  for (const auto& row : rows) {
    const double bytes = static_cast<double>(row.bytes);
    w.begin_object();
    w.field("label", row.label);
    w.field("bytes", row.bytes);
    w.field("bytes_per_event", bytes / static_cast<double>(row.events));
    w.field("vs_raw", raw / bytes);
    w.field("vs_gzip", gz / bytes);
    w.end_object();
  }
  w.end_array();
  w.key("store_throughput").begin_object();
  w.field("hardware_threads", cpus);
  w.field("chunks", jobs.size());
  w.field("raw_bytes", job_raw_bytes);
  w.key("paths").begin_array();
  for (const ThroughputRow& row : throughput) {
    w.begin_object();
    w.field("workers", row.workers);
    w.field("inline", row.workers == 0);
    w.field("seconds", row.seconds);
    w.field("mb_per_s", row.mb_per_s);
    w.field("speedup_vs_inline", inline_seconds / row.seconds);
    w.end_object();
  }
  w.end_array();
  w.field("speedup_4_workers_vs_inline", speedup_4x);
  w.end_object();
  w.end_object();
  if (bench::write_bench_json(json_path, std::move(w).take()))
    std::printf("\nwrote %s (4-worker speedup vs inline: %.2fx)\n",
                json_path, speedup_4x);

  // --- leveled codec fast path (BENCH_compress.json) ---------------------
  // Per-level DEFLATE wall time + ratio on a deterministic seeded corpus.
  // The corpus depends only on the fixed RNG seed and the compressor is
  // deterministic per (input, level), so `compressed_bytes` is
  // machine-independent — which is what lets the CI perf-smoke job diff
  // it against a committed baseline (bench/check_compress_baseline.py).
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
  lw.end_object();
  if (bench::write_bench_json("BENCH_compress.json", std::move(lw).take()))
    std::printf("wrote BENCH_compress.json\n");

  return (cdc < gz && gz < raw) ? 0 : 1;
}
