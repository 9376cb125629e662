// End-to-end tests of the storage pipeline (src/store/): recording an MCB
// run on the parallel simulator into the container store must store
// byte-for-byte what a one-worker run stores in memory, and a sealed
// container must replay the run bitwise.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "apps/mcb.h"
#include "minimpi/simulator.h"
#include "runtime/storage.h"
#include "store/container_reader.h"
#include "store/container_store.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace cdc {
namespace {

class ContainerPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process scratch dir: ctest -j runs each test of this fixture as
    // its own process, and a shared directory would be remove_all'd by a
    // concurrent sibling mid-test.
    dir_ = std::filesystem::temp_directory_path() /
           ("cdc_pipeline_test." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

minimpi::Simulator::Config sim_config(int ranks, std::uint64_t noise_seed,
                                      int workers = 0) {
  minimpi::Simulator::Config config;
  config.num_ranks = ranks;
  config.noise_seed = noise_seed;
  config.workers = workers;
  return config;
}

apps::McbConfig small_mcb() {
  apps::McbConfig config;
  config.grid_x = 3;
  config.grid_y = 3;
  config.particles_per_rank = 40;
  config.segments_per_particle = 8;
  config.tracks_per_poll = 16;
  return config;
}

apps::McbResult record_mcb(std::uint64_t noise_seed, tool::Recorder& rec,
                           int workers = 0) {
  minimpi::Simulator sim(sim_config(9, noise_seed, workers), &rec);
  return apps::run_mcb(sim, small_mcb());
}

tool::ToolOptions chunked_options() {
  tool::ToolOptions options;
  options.chunk_target = 64;  // force many chunks through the sink
  return options;
}

TEST_F(ContainerPipelineTest,
       ParallelContainerPipelineStoresBitIdenticalStreams) {
  const tool::ToolOptions options = chunked_options();

  // Reference: one simulator worker, encoding into a MemoryStore.
  runtime::MemoryStore inline_store;
  tool::Recorder inline_rec(9, &inline_store, options);
  const auto inline_run = record_mcb(11, inline_rec, /*workers=*/1);
  inline_rec.finalize();
  ASSERT_GT(inline_store.total_bytes(), 0u);

  // Parallel path: four simulator workers, the recorder flushing into
  // the checksummed container store.
  store::ContainerStore container(path("run.cdcc"));
  tool::Recorder parallel_rec(9, &container, options);
  const auto parallel_run = record_mcb(11, parallel_rec, /*workers=*/4);
  parallel_rec.finalize();
  container.seal();
  const auto sealed = store::ContainerStore::open(path("run.cdcc"));

  EXPECT_EQ(inline_run.global_tally, parallel_run.global_tally);
  ASSERT_EQ(inline_store.keys().size(), sealed->keys().size());
  // The acceptance bar: every stream byte-for-byte identical.
  for (const runtime::StreamKey& key : inline_store.keys())
    EXPECT_EQ(inline_store.read(key), sealed->read(key))
        << "stream (" << key.rank << "," << key.callsite << ") diverged";
  EXPECT_GT(parallel_rec.totals().chunks, 9u);  // many chunks, many flushes
}

TEST_F(ContainerPipelineTest, SealedContainerReplaysTheRunBitwise) {
  const tool::ToolOptions options = chunked_options();
  const std::string file = path("replay.cdcc");

  apps::McbResult recorded{};
  {
    store::ContainerStore container(file);
    tool::Recorder recorder(9, &container, options);
    recorded = record_mcb(11, recorder);
    recorder.finalize();
    container.seal();
  }

  // The container round-trips through disk verifiably clean...
  {
    const auto reader = store::ContainerReader::open(file);
    ASSERT_NE(reader, nullptr);
    EXPECT_TRUE(reader->verify().ok);
  }

  // ...and a replay fed from the reopened container reproduces the run
  // under a different noise seed.
  const auto reopened = store::ContainerStore::open(file);
  ASSERT_NE(reopened, nullptr);
  tool::Replayer replayer(9, reopened.get(), options);
  minimpi::Simulator sim(sim_config(9, 99), &replayer);
  const auto replayed = apps::run_mcb(sim, small_mcb());

  EXPECT_EQ(recorded.global_tally, replayed.global_tally);
  EXPECT_TRUE(replayer.fully_replayed());
}

}  // namespace
}  // namespace cdc
