// Figure 21 (this repo's extension): corpus storage of a 64-seed record
// family vs 64 independently stored records.
//
// The paper compresses ONE record by encoding it against a predictable
// reference (the Lamport clock order). The corpus applies the same move
// across records: 64 runs of the fig13 MCB workload — identical app and
// config, different network-noise seeds — are recorded through a
// CorpusStore into a single container. Two corpora are measured:
//
//   * the CDC corpus: each member recorded with the paper's full codec
//     (RE + PE + LPE + epoch), the replayable form. The acceptance bar
//     (ISSUE 6) is that this one container is >= 3x smaller than the sum
//     of the same 64 runs stored as independent gzip records (fig13's
//     "gzip" row — the production status quo the corpus replaces).
//   * the rows corpus: the same runs as UNcompressed baseline rows, where
//     the corpus machinery (reference election, JACM'02 correcting
//     deltas, gzip fallback) is the only compressor — isolating the
//     cross-member dedup contribution.
//
// Each corpus's encoding mix (streams stored as delta / gzip / raw) is
// printed and written to BENCH_corpus.json. Every member of both corpora
// must reconstruct byte-identically (replay-equivalence of corpus members
// is fuzzed separately in tests/integration/corpus_fuzz_test.cc). The
// simulator is deterministic per seed and every encoder is deterministic,
// so all byte counts in BENCH_corpus.json are machine-independent — which
// is what lets the CI perf-smoke job diff the ratios against
// bench/corpus_baseline.json (bench/check_baseline.py, 2%
// tolerance).
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "corpus/corpus.h"
#include "obs/stats.h"
#include "runtime/storage.h"
#include "tool/recorder.h"

namespace {

using namespace cdc;

using StreamMap = std::map<runtime::StreamKey, std::vector<std::uint8_t>>;

struct CurveRow {
  int members = 0;
  std::uint64_t corpus_bytes = 0;  ///< CDC corpus container after flush
  std::uint64_t gzip_bytes = 0;    ///< same members as independent gzip
};

/// One corpus under measurement plus the originals to verify against.
struct Family {
  const char* label;
  std::filesystem::path path;
  std::unique_ptr<corpus::Corpus> corpus;
  std::vector<std::pair<std::uint32_t, StreamMap>> originals;
};

/// Runs the seeded MCB workload once with `options`, recording into
/// `store`.
void record_run(int ranks, std::uint64_t seed, const tool::ToolOptions& options,
                runtime::RecordSink* store) {
  tool::Recorder recorder(ranks, store, options);
  minimpi::Simulator sim(bench::sim_config(ranks, seed), &recorder);
  apps::run_mcb(sim, bench::mcb_config(ranks));
  recorder.finalize();
}

/// Ingests the buffered record as a member and snapshots its streams.
void keep_member(Family& family, const std::string& name,
                 const runtime::RecordStore& rows, std::uint32_t ordinal) {
  StreamMap streams;
  for (const auto& key : rows.keys()) streams.emplace(key, rows.read(key));
  family.originals.emplace_back(ordinal, std::move(streams));
  (void)name;
}

/// Byte-verifies every member of a sealed family. Returns the verified
/// stream count, 0 on failure.
std::uint64_t verify_family(const Family& family,
                            const corpus::CorpusReader& reader) {
  std::uint64_t verified = 0;
  for (const auto& [ordinal, streams] : family.originals) {
    for (const auto& [key, bytes] : streams) {
      const auto back = reader.read_stream(ordinal, key);
      if (!back.has_value() || *back != bytes) {
        std::fprintf(stderr,
                     "FAIL: %s member %u stream (%d,%u) did not round-trip\n",
                     family.label, ordinal, key.rank, key.callsite);
        return 0;
      }
      ++verified;
    }
  }
  return verified;
}

/// Streams of one corpus stored under `encoding`.
std::uint64_t streams_as(const corpus::CorpusStats& stats,
                         corpus::MemberEncoding encoding) {
  return stats.by_encoding[static_cast<std::size_t>(encoding)];
}

/// "N streams (D correcting / G gzip / R raw)" for one corpus.
void print_mix(const char* label, const corpus::CorpusStats& stats) {
  using corpus::MemberEncoding;
  std::printf(
      "%s encoding mix: %llu streams (%llu correcting / %llu gzip / "
      "%llu raw)\n",
      label, static_cast<unsigned long long>(stats.streams),
      static_cast<unsigned long long>(
          streams_as(stats, MemberEncoding::kDeltaCorrecting)),
      static_cast<unsigned long long>(
          streams_as(stats, MemberEncoding::kSelfGzip)),
      static_cast<unsigned long long>(
          streams_as(stats, MemberEncoding::kRaw)));
}

/// The `by_encoding` object of one corpus.
void write_mix(obs::JsonWriter& w, const corpus::CorpusStats& stats) {
  using corpus::MemberEncoding;
  w.key("by_encoding").begin_object();
  w.field("delta_correcting",
          streams_as(stats, MemberEncoding::kDeltaCorrecting));
  w.field("self_gzip", streams_as(stats, MemberEncoding::kSelfGzip));
  w.field("raw", streams_as(stats, MemberEncoding::kRaw));
  w.end_object();
}

}  // namespace

int main() {
  using namespace cdc;
  const int default_ranks = bench::full_scale() ? 64 : 24;
  const int ranks = bench::env_int("CDC_RANKS", default_ranks);
  const int members = bench::env_int("CDC_CORPUS_MEMBERS", 64);
  const std::uint64_t base_seed = bench::default_seed();
  bench::print_machine_banner(
      "Figure 21 — corpus storage of a 64-seed record family", ranks);
  std::printf("family    : MCB, %d members (noise seeds %llu..%llu)\n\n",
              members, static_cast<unsigned long long>(base_seed),
              static_cast<unsigned long long>(base_seed + members - 1));

  const auto tmp = std::filesystem::temp_directory_path();
  Family cdc_family{"cdc", tmp / "cdc_fig21_cdc.cdcc", nullptr, {}};
  Family rows_family{"rows", tmp / "cdc_fig21_rows.cdcc", nullptr, {}};
  for (Family* family : {&cdc_family, &rows_family}) {
    std::filesystem::remove(family->path);
    family->corpus =
        std::make_unique<corpus::Corpus>(family->path.string());
  }

  std::vector<CurveRow> curve;
  std::uint64_t sum_gzip = 0;   ///< independent gzip records (fig13 row)
  std::uint64_t sum_raw = 0;    ///< uncompressed rows, for scale

  for (int m = 0; m < members; ++m) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(m);
    const std::string name = "seed-" + std::to_string(seed);

    // The corpus under test: the paper's full codec through CorpusStore.
    {
      corpus::CorpusStore store(cdc_family.corpus.get(), "mcb", name);
      record_run(ranks, seed, tool::ToolOptions{}, &store);
      // Snapshot BEFORE sealing: seal_member clears the buffer.
      runtime::MemoryStore copy;
      for (const auto& key : store.keys()) copy.append(key, store.read(key));
      const std::uint32_t ordinal = store.seal_member();
      keep_member(cdc_family, name, copy, ordinal);
    }

    // The comparison bar: the same run as an independent gzip record.
    {
      runtime::CountingStore gzip_store;
      tool::ToolOptions options;
      options.codec = tool::RecordCodec::kBaselineGzip;
      record_run(ranks, seed, options, &gzip_store);
      sum_gzip += gzip_store.total_bytes();
    }

    // The dedup probe: uncompressed rows, corpus as the only compressor.
    {
      runtime::MemoryStore rows;
      tool::ToolOptions options;
      options.codec = tool::RecordCodec::kBaselineRaw;
      record_run(ranks, seed, options, &rows);
      sum_raw += rows.total_bytes();
      const std::uint32_t ordinal =
          rows_family.corpus->add_member("mcb-rows", name, rows);
      keep_member(rows_family, name, rows, ordinal);
    }

    const int count = m + 1;
    if (count == 8 || count == 16 || count == 32 || count == members) {
      cdc_family.corpus->flush();  // durable prefix = corpus cost so far
      CurveRow row;
      row.members = count;
      row.corpus_bytes = std::filesystem::file_size(cdc_family.path);
      row.gzip_bytes = sum_gzip;
      if (curve.empty() || curve.back().members != count)
        curve.push_back(row);
      else
        curve.back() = row;
      std::fprintf(stderr, "  [ingested %3d/%d members]\n", count, members);
    }
  }
  cdc_family.corpus->seal();
  rows_family.corpus->seal();
  const std::uint64_t corpus_bytes =
      std::filesystem::file_size(cdc_family.path);
  const std::uint64_t rows_corpus_bytes =
      std::filesystem::file_size(rows_family.path);
  if (!curve.empty()) curve.back().corpus_bytes = corpus_bytes;

  std::string error;
  const auto cdc_reader =
      corpus::CorpusReader::open(cdc_family.path.string(), &error);
  if (cdc_reader == nullptr) {
    std::fprintf(stderr, "FAIL: CDC corpus would not reopen: %s\n",
                 error.c_str());
    return 1;
  }
  const auto rows_reader =
      corpus::CorpusReader::open(rows_family.path.string(), &error);
  if (rows_reader == nullptr) {
    std::fprintf(stderr, "FAIL: rows corpus would not reopen: %s\n",
                 error.c_str());
    return 1;
  }
  const std::uint64_t cdc_verified = verify_family(cdc_family, *cdc_reader);
  const std::uint64_t rows_verified = verify_family(rows_family, *rows_reader);
  if (cdc_verified == 0 || rows_verified == 0) return 1;

  const double vs_gzip = static_cast<double>(sum_gzip) /
                         static_cast<double>(corpus_bytes);
  const double rows_dedup = rows_reader->stats().dedup_ratio();
  const double rows_vs_gzip = static_cast<double>(sum_gzip) /
                              static_cast<double>(rows_corpus_bytes);

  std::printf("%8s %16s %16s %9s\n", "members", "CDC corpus file",
              "Σ gzip records", "vs gzip");
  for (const CurveRow& row : curve) {
    std::printf("%8d %16s %16s %8.2fx\n", row.members,
                obs::format_bytes(
                    static_cast<double>(row.corpus_bytes)).c_str(),
                obs::format_bytes(
                    static_cast<double>(row.gzip_bytes)).c_str(),
                static_cast<double>(row.gzip_bytes) /
                    static_cast<double>(row.corpus_bytes));
  }
  std::printf(
      "\nrows corpus (corpus as the only compressor): %s for %s raw "
      "(%.2fx dedup, %.2fx vs the gzip records)\n",
      obs::format_bytes(static_cast<double>(rows_corpus_bytes)).c_str(),
      obs::format_bytes(static_cast<double>(sum_raw)).c_str(),
      rows_dedup, rows_vs_gzip);
  print_mix("CDC corpus ", cdc_reader->stats());
  print_mix("rows corpus", rows_reader->stats());
  std::printf("verified %llu + %llu member streams byte-identical\n",
              static_cast<unsigned long long>(cdc_verified),
              static_cast<unsigned long long>(rows_verified));
  std::printf("\nacceptance: CDC corpus must be >= 3x smaller than %d "
              "independent gzip records — measured %.2fx\n",
              members, vs_gzip);

  // --- machine-readable output ------------------------------------------
  obs::JsonWriter w;
  w.begin_object();
  w.field("bench", "fig21_corpus_dedup");
  w.field("ranks", ranks);
  w.field("members", members);
  w.field("base_seed", base_seed);
  w.key("curve").begin_array();
  for (const CurveRow& row : curve) {
    w.begin_object();
    w.field("members", row.members);
    w.field("corpus_bytes", row.corpus_bytes);
    w.field("gzip_bytes", row.gzip_bytes);
    w.field("vs_gzip", static_cast<double>(row.gzip_bytes) /
                           static_cast<double>(row.corpus_bytes));
    w.end_object();
  }
  w.end_array();
  w.field("corpus_bytes", corpus_bytes);
  w.field("gzip_bytes", sum_gzip);
  w.field("raw_bytes", sum_raw);
  w.field("vs_gzip", vs_gzip);
  write_mix(w, cdc_reader->stats());
  w.key("rows_corpus").begin_object();
  w.field("corpus_bytes", rows_corpus_bytes);
  w.field("dedup_ratio", rows_dedup);
  w.field("vs_gzip", rows_vs_gzip);
  write_mix(w, rows_reader->stats());
  w.end_object();
  w.field("verified_streams", cdc_verified + rows_verified);
  w.end_object();
  if (bench::write_bench_json("BENCH_corpus.json", std::move(w).take()))
    std::printf("wrote BENCH_corpus.json\n");

  std::filesystem::remove(cdc_family.path);
  std::filesystem::remove(rows_family.path);
  return vs_gzip >= 3.0 ? 0 : 1;
}
