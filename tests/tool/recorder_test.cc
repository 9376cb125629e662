// Recorder's per-rank stream table: streams are created on first touch,
// but what the recorder seals must not depend on the order in which the
// (rank, callsite) streams were first touched.
#include "tool/recorder.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "store/container_store.h"
#include "tool/crash_store.h"

namespace cdc::tool {
namespace {

constexpr int kRanks = 6;
/// Sparse callsite ids, so a descending walk inserts at a row's front.
constexpr minimpi::CallsiteId kCallsites[] = {2, 7, 11};

struct Touch {
  minimpi::Rank rank;
  minimpi::CallsiteId callsite;
};

std::vector<Touch> ascending() {
  std::vector<Touch> order;
  for (minimpi::Rank r = 0; r < kRanks; ++r)
    for (const minimpi::CallsiteId cs : kCallsites) order.push_back({r, cs});
  return order;
}

std::vector<Touch> descending() {
  std::vector<Touch> order = ascending();
  std::reverse(order.begin(), order.end());
  return order;
}

/// Three deliveries and an unmatched test at every stream, in `order`.
void drive(Recorder& recorder, const std::vector<Touch>& order) {
  for (const Touch& t : order) {
    for (std::uint64_t k = 0; k < 3; ++k) {
      std::vector<minimpi::Completion> events(1);
      events[0].source = static_cast<minimpi::Rank>(
          (static_cast<std::uint64_t>(t.rank) + 1 + k) % kRanks);
      events[0].piggyback = 100 * t.callsite + 7 * (2 - k) + 1;
      recorder.on_deliver(t.rank, t.callsite, minimpi::MFKind::kWaitany,
                          events);
    }
    recorder.on_unmatched_test(t.rank, t.callsite);
  }
  recorder.finalize();
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string container_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("cdc_recorder_test_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".cdc"))
      .string();
}

TEST(Recorder, FirstTouchOrderDoesNotChangeTheRecord) {
  runtime::MemoryStore up_store;
  runtime::MemoryStore down_store;
  Recorder up(kRanks, &up_store);
  Recorder down(kRanks, &down_store);
  drive(up, ascending());
  drive(down, descending());

  std::vector<runtime::StreamKey> expected_keys;
  for (const Touch& t : ascending())
    expected_keys.push_back({t.rank, t.callsite});
  EXPECT_EQ(up_store.keys(), expected_keys);
  EXPECT_EQ(down_store.keys(), expected_keys);
  for (const runtime::StreamKey& key : expected_keys) {
    EXPECT_FALSE(up_store.read(key).empty());
    EXPECT_EQ(down_store.read(key), up_store.read(key))
        << "rank " << key.rank << " callsite " << key.callsite;
  }
  EXPECT_EQ(down.totals().chunks, up.totals().chunks);
  EXPECT_EQ(up.totals().chunks, expected_keys.size());
  EXPECT_EQ(down.permutation_percentages(), up.permutation_percentages());
  EXPECT_EQ(up.permutation_percentages().size(),
            static_cast<std::size_t>(kRanks));
}

TEST(Recorder, FirstTouchOrderDoesNotChangeTheSealedContainer) {
  // The container lays frames out in flush order, which finalize takes
  // from the stream table: (rank, callsite), whatever the touch order.
  const std::string up_path = container_path("up");
  const std::string down_path = container_path("down");
  {
    store::ContainerStore up_store(up_path);
    Recorder up(kRanks, &up_store);
    drive(up, ascending());
    up_store.seal();
  }
  {
    store::ContainerStore down_store(down_path);
    Recorder down(kRanks, &down_store);
    drive(down, descending());
    down_store.seal();
  }
  const std::vector<std::uint8_t> up_bytes = file_bytes(up_path);
  EXPECT_FALSE(up_bytes.empty());
  EXPECT_EQ(file_bytes(down_path), up_bytes);
  std::filesystem::remove(up_path);
  std::filesystem::remove(down_path);
}

/// Counts what reaches the storage below a CrashingStore.
class CountingSink final : public runtime::RecordSink {
 public:
  void append(const runtime::StreamKey&,
              std::span<const std::uint8_t>) override {
    ++appends;
  }
  void append_epoch(const runtime::StreamKey&, std::span<const std::uint8_t>,
                    const runtime::EpochMeta&) override {
    ++epoch_appends;
  }
  void sync() override { ++syncs; }

  int appends = 0;
  int epoch_appends = 0;
  int syncs = 0;
};

TEST(CrashingStore, ForwardsEpochsAndSyncsUntilItsCrash) {
  CountingSink below;
  CrashingStore crashing(&below, /*appends_before_crash=*/3);
  const std::vector<std::uint8_t> frame{1, 2, 3};
  const runtime::EpochMeta meta{4, 1};
  // Before the crash: appends keep their epoch metadata, syncs pass.
  crashing.append_epoch({0, 0}, frame, meta);
  crashing.sync();
  crashing.append({1, 0}, frame);
  crashing.append_epoch({0, 0}, frame, meta);
  EXPECT_EQ(below.epoch_appends, 2);
  EXPECT_EQ(below.appends, 1);
  EXPECT_EQ(below.syncs, 1);
  // The third append spent the budget: nothing after it gets through.
  crashing.sync();
  crashing.append_epoch({0, 0}, frame, meta);
  crashing.append({1, 0}, frame);
  crashing.sync();
  EXPECT_EQ(below.epoch_appends, 2);
  EXPECT_EQ(below.appends, 1);
  EXPECT_EQ(below.syncs, 1);
  EXPECT_EQ(crashing.appends_forwarded(), 3u);
}

}  // namespace
}  // namespace cdc::tool
