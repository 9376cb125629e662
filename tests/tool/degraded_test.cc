// Degraded-mode replay mechanics: gap reports of killed runs, the
// quarantine-hole prefix cap (the hole the container cannot represent),
// and diagnostics-not-aborts on missing or empty containers.
#include "tool/degraded.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "minimpi/schedule_fuzzer.h"
#include "obs/json.h"
#include "store/container_store.h"
#include "store/resilient.h"
#include "support/oracle.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace cdc::tool {
namespace {

class DegradedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cdc_degraded_test." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::vector<std::uint8_t> payload(std::uint8_t tag) {
  return {tag, 1, 2, 3, 4, 5, 6, 7};
}

TEST_F(DegradedTest, KilledRunYieldsACompleteContainerAndAVerifiedPrefix) {
  // A rank killed mid-run truncates its streams *semantically* — the
  // sealed container is still frame-complete, the degradation shows up as
  // a shorter gated prefix at replay, verified by the oracle.
  constexpr int kRanks = 4;
  const fuzz::FuzzWorkload farm = fuzz::taskfarm_workload(kRanks, 60);
  const std::string container_path = path("killed.cdcc");

  // Probe the healthy span so the kill lands mid-run.
  const double span =
      fuzz::run_probed(farm, nullptr, fuzz::sim_config(kRanks, 11))
          .stats.end_time;

  support::Trace recorded;
  {
    store::ContainerStore container(container_path);
    Recorder recorder(kRanks, &container);
    minimpi::FaultPlan kill;
    kill.kills.push_back(minimpi::RankKill{2, span * 0.4});
    const fuzz::ProbedRun run =
        fuzz::run_probed(farm, &recorder, fuzz::sim_config(kRanks, 11, kill));
    recorder.finalize();
    container.seal();
    ASSERT_EQ(run.fault_stats.rank_kills, 1u);
    recorded = run.trace;
  }

  const GapReport report = inspect_gaps(container_path);
  EXPECT_TRUE(report.container_sealed);
  EXPECT_TRUE(report.container_errors.empty());
  EXPECT_DOUBLE_EQ(report.frame_coverage(), 1.0);
  EXPECT_FALSE(report.degraded());
  const std::string json = report.to_json();
  EXPECT_TRUE(obs::json_well_formed(json));
  EXPECT_NE(json.find("\"coverage\""), std::string::npos);
  EXPECT_NE(json.find("\"streams\""), std::string::npos);

  // Degraded replay of the full record: the gated prefix must match the
  // recorded trace bit for bit.
  const auto record = load_degraded(container_path);
  ToolOptions options;
  options.partial_record = true;
  Replayer replayer(kRanks, &record->store, options);
  const fuzz::ProbedRun replayed =
      fuzz::run_probed(farm, &replayer, fuzz::sim_config(kRanks, 77));

  const support::OracleReport oracle = support::check_prefix(
      recorded, replayed.trace, fuzz::prefix_lengths(replayer));
  EXPECT_TRUE(oracle.ok) << oracle.summary();
  EXPECT_TRUE(oracle.events_compared > 0 || replayer.released());
}

TEST_F(DegradedTest, QuarantineHoleCapsTheReplayablePrefix) {
  // The container packs appends densely, so a quarantined frame leaves no
  // visible seq gap — the `.cdcq` sidecar's stream position is the only
  // record of the hole, and the replayable prefix must stop there.
  const std::string container_path = path("holes.cdcc");
  const std::string sidecar = path("holes.cdcq");
  runtime::StreamKey damaged;
  damaged.rank = 1;
  damaged.callsite = 4;
  runtime::StreamKey whole;
  whole.rank = 2;
  whole.callsite = 4;
  {
    store::ContainerStore container(container_path);
    store::IoFaultPlan plan;
    plan.hard_every_n = 3;  // appends 3 and 6 never succeed
    store::IoFaultStore faulty(&container, plan);
    store::RetryPolicy policy;
    policy.max_retries = 1;
    store::RetryingStore retrying(&faulty, policy, sidecar);
    for (std::uint8_t i = 0; i < 6; ++i)
      retrying.append(damaged, payload(i));  // loses i == 2 and i == 5
    for (std::uint8_t i = 6; i < 8; ++i) retrying.append(whole, payload(i));
    ASSERT_EQ(retrying.stats().quarantined, 2u);
    container.seal();
  }

  const GapReport report = inspect_gaps(container_path, sidecar);
  EXPECT_TRUE(report.container_sealed);
  EXPECT_EQ(report.quarantined_frames, 2u);
  EXPECT_TRUE(report.degraded());
  ASSERT_EQ(report.streams.size(), 2u);

  // The damaged stream promises 6 frames (4 in the container + 2 lost);
  // only the 2 before the first hole are replayable.
  const StreamGap& gap = report.streams[0];
  EXPECT_EQ(gap.key, damaged);
  EXPECT_EQ(gap.frames_listed, 6u);
  EXPECT_EQ(gap.frames_intact, 2u);
  EXPECT_TRUE(gap.truncated);
  EXPECT_EQ(gap.gap_reason, "frame quarantined after exhausted retries");

  // The untouched stream is whole.
  EXPECT_EQ(report.streams[1].key, whole);
  EXPECT_EQ(report.streams[1].frames_listed, 2u);
  EXPECT_EQ(report.streams[1].frames_intact, 2u);
  EXPECT_FALSE(report.streams[1].truncated);

  // load_degraded keeps exactly the capped prefix.
  const auto record = load_degraded(container_path, sidecar);
  std::vector<std::uint8_t> expected = payload(0);
  const std::vector<std::uint8_t> second = payload(1);
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(record->store.read(damaged), expected);
}

TEST_F(DegradedTest, MissingAndEmptyContainersReportInsteadOfAborting) {
  const GapReport missing = inspect_gaps(path("nonexistent.cdcc"));
  EXPECT_FALSE(missing.container_sealed);
  ASSERT_FALSE(missing.container_errors.empty());
  EXPECT_TRUE(missing.degraded());
  EXPECT_TRUE(missing.streams.empty());
  EXPECT_DOUBLE_EQ(missing.frame_coverage(), 1.0);  // nothing promised
  EXPECT_TRUE(obs::json_well_formed(missing.to_json()));

  const std::string empty_path = path("empty.cdcc");
  { std::ofstream out(empty_path, std::ios::binary); }
  const GapReport empty = inspect_gaps(empty_path);
  EXPECT_FALSE(empty.container_sealed);
  EXPECT_FALSE(empty.container_errors.empty());
  EXPECT_TRUE(empty.degraded());
  EXPECT_TRUE(obs::json_well_formed(empty.to_json()));

  const auto record = load_degraded(empty_path);
  EXPECT_TRUE(record->store.keys().empty());
  EXPECT_TRUE(record->report.streams.empty());
}

}  // namespace
}  // namespace cdc::tool
