// Corpus-class fuzzing: N seeded record runs ingested as members of ONE
// CorpusStore, then every member is materialized back out of the corpus
// and replayed under a different noise seed — the replay-equivalence
// oracle plus the bitwise order-sensitive result must hold for each. A
// second corpus is crashed mid-ingest and salvaged through
// repack_container; all surviving members must still replay
// bit-identically.
//
// Suite names carry the `fuzz_` prefix: the nightly CI matrix runs
// `ctest -R fuzz` across CDC_FUZZ_BASE_SEED / CDC_FUZZ_SEEDS.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "corpus/corpus.h"
#include "minimpi/schedule_fuzzer.h"
#include "runtime/storage.h"
#include "store/container_reader.h"
#include "support/oracle.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace cdc {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

std::filesystem::path scratch_dir() {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("cdc_corpus_fuzz_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return dir;
}

struct RecordedMember {
  std::uint64_t seed = 0;
  std::uint32_t ordinal = 0;
  double result = 0.0;      ///< order-sensitive FP tally (bitwise witness)
  support::Trace trace;     ///< the receive order the application saw
};

tool::ToolOptions corpus_tool_options() {
  tool::ToolOptions options;
  options.chunk_target = 64;  // small chunks: exercise epoch logic
  return options;
}

// Records one seeded run straight into the corpus via the RecordStore
// adapter and returns its witness data.
RecordedMember record_member(const fuzz::FuzzWorkload& workload,
                             corpus::Corpus& corpus, std::uint64_t seed) {
  corpus::CorpusStore store(&corpus, workload.name,
                            "seed-" + std::to_string(seed));
  const tool::ToolOptions options = corpus_tool_options();
  tool::Recorder recorder(workload.num_ranks, &store, options);
  fuzz::ProbedRun run = fuzz::run_probed(
      workload, &recorder, fuzz::sim_config(workload.num_ranks, seed));
  RecordedMember member;
  member.seed = seed;
  member.result = run.value;
  recorder.finalize();
  member.ordinal = store.seal_member();
  member.trace = std::move(run.trace);
  return member;
}

// Replays `member` out of the reopened corpus under a shifted noise seed
// and checks the oracle.
void expect_member_replays(const fuzz::FuzzWorkload& workload,
                           const corpus::CorpusReader& reader,
                           const RecordedMember& member) {
  SCOPED_TRACE(testing::Message()
               << "workload=" << workload.name << " seed=" << member.seed);
  runtime::MemoryStore loaded;
  ASSERT_TRUE(reader.load_member(member.ordinal, loaded));

  const tool::ToolOptions options = corpus_tool_options();
  tool::Replayer replayer(workload.num_ranks, &loaded, options);
  // A different noise seed: different network timing.
  const fuzz::ProbedRun replayed = fuzz::run_probed(
      workload, &replayer,
      fuzz::sim_config(workload.num_ranks, member.seed + 7777));

  EXPECT_EQ(replayed.value, member.result);  // bitwise: order reproduced
  EXPECT_TRUE(replayer.fully_replayed());
  const support::OracleReport report =
      support::check_equivalence(member.trace, replayed.trace);
  EXPECT_TRUE(report.ok) << (report.mismatches.empty()
                                 ? "no detail"
                                 : report.mismatches.front());
}

TEST(fuzz_corpus, SeededRunsIngestDedupAndReplayBitIdentically) {
  const std::uint64_t base_seed = env_u64("CDC_FUZZ_BASE_SEED", 1);
  const std::uint64_t num_seeds = env_u64("CDC_FUZZ_SEEDS", 8);
  const fuzz::FuzzWorkload workload = fuzz::taskfarm_workload();
  const auto dir = scratch_dir();
  const std::string file = (dir / "corpus_ingest.cdcc").string();

  // Two families per seed: the CDC-coded record (replayable — replay is
  // implemented for the CDC codec only) and the same run's UNcompressed
  // baseline rows, where the corpus itself is the only compressor — the
  // shape the fig21 dedup bench measures.
  std::vector<RecordedMember> recorded;
  std::vector<std::pair<std::uint32_t,
                        std::map<runtime::StreamKey,
                                 std::vector<std::uint8_t>>>> raw_members;
  {
    corpus::Corpus corpus(file);
    for (std::uint64_t s = 0; s < num_seeds; ++s) {
      const std::uint64_t seed = base_seed + s;
      recorded.push_back(record_member(workload, corpus, seed));

      tool::ToolOptions raw_options = corpus_tool_options();
      raw_options.codec = tool::RecordCodec::kBaselineRaw;
      runtime::MemoryStore rows;
      tool::Recorder recorder(workload.num_ranks, &rows, raw_options);
      (void)fuzz::run_probed(workload, &recorder,
                             fuzz::sim_config(workload.num_ranks, seed));
      recorder.finalize();
      const std::uint32_t ordinal = corpus.add_member(
          workload.name + "-raw", "seed-" + std::to_string(seed), rows);
      std::map<runtime::StreamKey, std::vector<std::uint8_t>> copy;
      for (const auto& key : rows.keys()) copy[key] = rows.read(key);
      raw_members.emplace_back(ordinal, std::move(copy));
    }
    EXPECT_EQ(corpus.stats().members, 2 * num_seeds);
    EXPECT_EQ(corpus.stats().families, 2u);
    corpus.seal();
  }

  std::string error;
  const auto reader = corpus::CorpusReader::open(file, &error);
  ASSERT_NE(reader, nullptr) << error;
  ASSERT_EQ(reader->members().size(), recorded.size() + raw_members.size());
  // Raw rows dominate the corpus' input bytes and share heavy structure
  // across seeds: gzip fallback + delta must shrink them well past raw.
  if (num_seeds >= 4) {
    EXPECT_GT(reader->stats().dedup_ratio(), 1.5);
  }

  for (std::size_t i = 0; i < recorded.size(); ++i) {
    ASSERT_TRUE(reader->members()[recorded[i].ordinal].readable)
        << reader->members()[recorded[i].ordinal].damage;
    expect_member_replays(workload, *reader, recorded[i]);
  }
  // Raw-row members round-trip byte-identically.
  for (const auto& [ordinal, streams] : raw_members) {
    for (const auto& [key, bytes] : streams) {
      const auto back = reader->read_stream(ordinal, key);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, bytes);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(fuzz_corpus, CrashMidIngestSalvagesToReplayableMembers) {
  const std::uint64_t base_seed = env_u64("CDC_FUZZ_BASE_SEED", 1);
  const std::uint64_t num_seeds = std::max<std::uint64_t>(
      2, env_u64("CDC_FUZZ_SEEDS", 8) / 2);
  const fuzz::FuzzWorkload workload = fuzz::taskfarm_workload();
  const auto dir = scratch_dir();
  const std::string file = (dir / "corpus_crash.cdcc").string();
  const std::string repacked = (dir / "corpus_crash_repacked.cdcc").string();

  std::vector<RecordedMember> recorded;
  {
    corpus::Corpus corpus(file);
    for (std::uint64_t s = 0; s < num_seeds; ++s)
      recorded.push_back(record_member(workload, corpus, base_seed + s));
    corpus.flush();  // everything so far is durable
    // One more member rides the unflushed tail, then the "process dies".
    record_member(workload, corpus, base_seed + num_seeds);
    corpus.abandon();
  }

  // A crashed corpus refuses to open until salvaged.
  std::string error;
  EXPECT_EQ(corpus::CorpusReader::open(file, &error), nullptr);
  EXPECT_NE(error.find("repack"), std::string::npos) << error;

  const store::RepackResult repack = store::repack_container(file, repacked);
  ASSERT_TRUE(repack.ok) << repack.error;

  const auto reader = corpus::CorpusReader::open(repacked, &error);
  ASSERT_NE(reader, nullptr) << error;
  ASSERT_GE(reader->members().size(), recorded.size());

  // Every flushed member survived intact and still replays bitwise.
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    ASSERT_TRUE(reader->members()[recorded[i].ordinal].readable)
        << reader->members()[recorded[i].ordinal].damage;
    expect_member_replays(workload, *reader, recorded[i]);
  }
  // Tail members may or may not have survived; any that did must be
  // internally consistent (readable implies CRC-verified streams).
  for (std::size_t m = recorded.size(); m < reader->members().size(); ++m) {
    if (!reader->members()[m].readable) continue;
    for (const auto& key : reader->member_keys(static_cast<std::uint32_t>(m)))
      EXPECT_TRUE(reader
                      ->read_stream(static_cast<std::uint32_t>(m), key)
                      .has_value());
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cdc
