#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>

#include "apps/mcb.h"
#include "minimpi/simulator.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "store/container_store.h"
#include "tool/options.h"
#include "tool/pipeline_inspect.h"
#include "tool/recorder.h"

namespace cdc::obs {
namespace {

// The report itself always works; what vanishes when the layer is
// compiled out (-DCDC_OBS=OFF) is the recording feeding it.
#define SKIP_IF_OBS_COMPILED_OUT()                          \
  if (!compiled_in()) GTEST_SKIP() << "obs compiled out — " \
                                      "recording is a no-op"

std::string printed(const PipelineReport& report) {
  std::FILE* out = std::tmpfile();
  report.print(out);
  std::string text(static_cast<std::size_t>(std::ftell(out)), '\0');
  std::rewind(out);
  text.resize(std::fread(text.data(), 1, text.size(), out));
  std::fclose(out);
  return text;
}

/// Every metric reaches the report under the name its emitter registered,
/// including one the report's own code never names; the derived rates
/// read their metrics by name.
TEST(PipelineReport, CarriesEveryMetricUnderItsRegisteredName) {
  SKIP_IF_OBS_COMPILED_OUT();
  Registry& registry = Registry::global();
  registry.reset_values();
  set_enabled(true);
  registry.counter("replay.gated_blocks").add(64);
  registry.histogram("record.epoch.flush_events").record(33);
  registry.counter("record.stage.deflate.bytes_in").add(4096);
  registry.counter("record.stage.deflate.ns").add(2048);
  registry.counter("store.pool.hits").add(30);
  registry.counter("store.pool.misses").add(10);
  registry.counter("record.stage.inflate.bytes_out").add(4096);
  registry.counter("record.stage.inflate.ns").add(1024);

  PipelineReport report;
  report.metrics = registry.snapshot();
  EXPECT_EQ(report.metrics.counter_or("replay.gated_blocks"), 64u);
  EXPECT_DOUBLE_EQ(report.pool_hit_rate(), 0.75);
  // 4096 bytes in 2048 ns = 2 bytes/ns = 2000 MB/s.
  EXPECT_DOUBLE_EQ(report.deflate_mb_per_s(), 2000.0);
  // Measured on the raw side: 4096 bytes out in 1024 ns = 4000 MB/s.
  EXPECT_DOUBLE_EQ(report.inflate_mb_per_s(), 4000.0);

  const std::string json = report.to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"replay.gated_blocks\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"record.epoch.flush_events\""), std::string::npos);
  EXPECT_NE(json.find("\"pool_hit_rate\": 0.75"), std::string::npos);
  const std::string text = printed(report);
  EXPECT_NE(text.find("replay.gated_blocks"), std::string::npos) << text;
  EXPECT_NE(text.find("count 1 min 33 max 33"), std::string::npos) << text;
  EXPECT_NE(text.find("deflate 2000.0 MB/s, inflate 4000.0 MB/s"),
            std::string::npos)
      << text;
  // Every metric of the snapshot gets its line.
  for (const CounterValue& c : report.metrics.counters)
    EXPECT_NE(text.find("  " + c.name + " "), std::string::npos) << c.name;
  for (const HistogramValue& h : report.metrics.histograms)
    EXPECT_NE(text.find("  " + h.name + " "), std::string::npos) << h.name;
  registry.reset_values();
}

TEST(PipelineReport, ReconcileAcceptsMatchingTotals) {
  PipelineReport report;
  report.metrics.counters = {{"record.chunks", 4},
                             {"record.frame.bytes_out", 1000},
                             {"record.stage.deflate.bytes_out", 900}};
  report.container.frames = 4;
  report.container.stored_bytes = 1000;
  report.container.file_bytes = 1200;
  EXPECT_TRUE(report.reconcile());
  EXPECT_EQ(report.reconcile_note,
            "encoder and container byte totals match");
}

TEST(PipelineReport, ReconcileRejectsByteMismatch) {
  PipelineReport report;
  report.metrics.counters = {{"record.chunks", 4},
                             {"record.frame.bytes_out", 1000}};
  report.container.frames = 4;
  report.container.stored_bytes = 999;
  EXPECT_FALSE(report.reconcile());
  EXPECT_NE(report.reconcile_note.find("framed bytes"), std::string::npos);
}

TEST(PipelineReport, ReconcileRejectsFrameCountMismatch) {
  PipelineReport report;
  report.metrics.counters = {{"record.chunks", 5},
                             {"record.frame.bytes_out", 1000}};
  report.container.frames = 4;
  report.container.stored_bytes = 1000;
  EXPECT_FALSE(report.reconcile());
  EXPECT_NE(report.reconcile_note.find("chunks"), std::string::npos);
}

TEST(PipelineReport, ReconcileRejectsDeflateExceedingFramedBytes) {
  PipelineReport report;
  report.metrics.counters = {{"record.frame.bytes_out", 100},
                             {"record.stage.deflate.bytes_out", 200}};
  EXPECT_FALSE(report.reconcile());
}

TEST(PipelineReport, ReconcileSingleSourceIsInternalOnly) {
  PipelineReport container_only;
  container_only.container.frames = 9;
  container_only.container.stored_bytes = 512;
  container_only.container.file_bytes = 600;
  EXPECT_TRUE(container_only.reconcile());
  EXPECT_NE(container_only.reconcile_note.find("single-source"),
            std::string::npos);

  PipelineReport bad_container;
  bad_container.container.frames = 9;
  bad_container.container.stored_bytes = 700;
  bad_container.container.file_bytes = 600;  // frames can't exceed the file
  EXPECT_FALSE(bad_container.reconcile());
}

TEST(PipelineReport, ToJsonIsWellFormed) {
  PipelineReport report;
  report.metrics.counters = {{"record.chunks", 2},
                             {"record.frame.bytes_out", 128}};
  report.container.frames = 2;
  report.container.stored_bytes = 128;
  report.container.codec_frames["cdc"] = 2;
  report.reconcile();
  const std::string json = report.to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"report\": \"cdc_pipeline\""), std::string::npos);
  EXPECT_NE(json.find("\"reconciliation\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"inflate_mb_per_s\""), std::string::npos);
}

/// The --stats invariant end to end: an instrumented record run must
/// produce live byte/chunk totals that reconcile with what the container
/// on disk actually holds.
TEST(PipelineReport, LiveRunReconcilesAgainstContainer) {
  SKIP_IF_OBS_COMPILED_OUT();
  // Other suites in this binary record into the shared global registry;
  // start this run from zero so the live section is only this run.
  Registry::global().reset_values();
  set_enabled(true);
  const std::string file = "/tmp/cdc_report_test.cdcc";
  {
    store::ContainerStore container(file);
    tool::ToolOptions options;
    options.chunk_target = 96;
    tool::Recorder recorder(4, &container, options);
    minimpi::Simulator::Config config;
    config.num_ranks = 4;
    config.noise_seed = 21;
    minimpi::Simulator sim(config, &recorder);
    apps::McbConfig mcb;
    mcb.grid_x = 2;
    mcb.grid_y = 2;
    mcb.particles_per_rank = 60;
    apps::run_mcb(sim, mcb);
    recorder.finalize();
    container.seal();
  }

  PipelineReport report;
  report.metrics = Registry::global().snapshot();
  std::string error;
  ASSERT_TRUE(tool::fill_container_section(file, report, &error)) << error;
  const auto counter = [&](std::string_view name) {
    return report.metrics.counter_or(name);
  };

  EXPECT_TRUE(report.reconcile()) << report.reconcile_note;
  EXPECT_GT(counter("record.events.matched"), 0u);
  EXPECT_GT(counter("record.chunks"), 0u);
  EXPECT_EQ(counter("record.chunks"), report.container.frames);
  EXPECT_EQ(counter("record.frame.bytes_out"), report.container.stored_bytes);
  EXPECT_EQ(counter("store.container.payload_bytes"),
            report.container.stored_bytes);
  EXPECT_TRUE(report.container.sealed);
  // The sink encoded every chunk the recorder sealed, one buffer-pool
  // hit or miss each.
  EXPECT_EQ(counter("store.pool.hits") + counter("store.pool.misses"),
            counter("record.chunks"));
  // Stage flow only shrinks: RE output feeds PE, PE feeds LP.
  EXPECT_LE(counter("record.stage.pe.bytes_in"),
            counter("record.stage.re.bytes_out"));
  EXPECT_LE(counter("record.stage.lp.bytes_in"),
            counter("record.stage.pe.bytes_out"));

  const std::string json = report.to_json();
  EXPECT_TRUE(json_well_formed(json));
  std::remove(file.c_str());
  Registry::global().reset_values();
}

/// sim.max_live_requests is one sample per run, like the queue depth: its
/// histogram's max is the largest run's value.
TEST(PipelineReport, ReportsTheDeepestLiveReceiveTable) {
  SKIP_IF_OBS_COMPILED_OUT();
  Registry::global().reset_values();
  set_enabled(true);
  std::uint64_t most = 0;
  for (const int side : {2, 3}) {
    apps::McbConfig mcb;
    mcb.grid_x = side;
    mcb.grid_y = side;
    mcb.particles_per_rank = 40;
    minimpi::Simulator::Config config;
    config.num_ranks = side * side;
    minimpi::Simulator sim(config);
    apps::run_mcb(sim, mcb);
    most = std::max(most, sim.stats().max_live_requests);
  }
  PipelineReport report;
  report.metrics = Registry::global().snapshot();
  const HistogramValue* live =
      report.metrics.find_histogram("sim.max_live_requests");
  ASSERT_NE(live, nullptr);
  EXPECT_GT(most, 0u);
  EXPECT_EQ(live->max, most);
  EXPECT_NE(report.to_json().find("\"sim.max_live_requests\""),
            std::string::npos);
  Registry::global().reset_values();
}

/// Per-run simulator values are maxima over the runs in the snapshot, not
/// sums: two 1-worker runs (a record plus its replay, as in
/// `record_inspector --stats`) still report one worker.
TEST(PipelineReport, PerRunSimulatorValuesAreMaximaOverRuns) {
  SKIP_IF_OBS_COMPILED_OUT();
  Registry::global().reset_values();
  set_enabled(true);
  apps::McbConfig mcb;
  mcb.grid_x = 2;
  mcb.grid_y = 2;
  mcb.particles_per_rank = 60;
  std::uint64_t max_depth = 0;
  std::uint64_t max_end_us = 0;
  for (const std::uint64_t seed : {21u, 22u}) {
    minimpi::Simulator::Config config;
    config.num_ranks = 4;
    config.noise_seed = seed;
    config.workers = 1;
    minimpi::Simulator sim(config);
    apps::run_mcb(sim, mcb);
    max_depth = std::max(max_depth, sim.stats().max_queue_depth);
    max_end_us = std::max(
        max_end_us, static_cast<std::uint64_t>(sim.stats().end_time * 1e6));
  }

  PipelineReport report;
  report.metrics = Registry::global().snapshot();
  const HistogramValue* workers =
      report.metrics.find_histogram("sim.exec.workers");
  const HistogramValue* depth =
      report.metrics.find_histogram("sim.max_queue_depth");
  const HistogramValue* end_us =
      report.metrics.find_histogram("sim.virtual_time_us");
  ASSERT_NE(workers, nullptr);
  ASSERT_NE(depth, nullptr);
  ASSERT_NE(end_us, nullptr);
  EXPECT_EQ(workers->count, 2u);
  EXPECT_EQ(workers->max, 1u);
  EXPECT_EQ(depth->max, max_depth);
  EXPECT_EQ(end_us->max, max_end_us);
  Registry::global().reset_values();
}

}  // namespace
}  // namespace cdc::obs
