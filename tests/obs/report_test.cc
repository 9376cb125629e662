#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

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

// from_snapshot itself always works; what vanishes when the layer is
// compiled out (-DCDC_OBS=OFF) is the recording feeding it.
#define SKIP_IF_OBS_COMPILED_OUT()                          \
  if (!compiled_in()) GTEST_SKIP() << "obs compiled out — " \
                                      "recording is a no-op"

TEST(PipelineReport, FromSnapshotMapsMetricNames) {
  SKIP_IF_OBS_COMPILED_OUT();
  Registry& registry = Registry::global();
  registry.reset_values();
  set_enabled(true);
  registry.counter("record.stage.re.calls").add(3);
  registry.counter("record.stage.re.bytes_in").add(4000);
  registry.counter("record.stage.re.bytes_out").add(1800);
  registry.counter("record.stage.re.values").add(225);
  registry.counter("record.stage.deflate.bytes_out").add(600);
  registry.counter("record.events.matched").add(100);
  registry.counter("record.events.unmatched").add(7);
  registry.counter("record.chunks").add(3);
  registry.counter("record.frame.bytes_out").add(650);
  registry.counter("record.epoch.cut_found").add(2);
  registry.counter("record.epoch.cut_deferred").add(1);
  registry.histogram("record.epoch.flush_events").record(33);
  registry.counter("record.stage.deflate.bytes_in").add(4096);
  registry.counter("record.stage.deflate.ns").add(2048);
  registry.counter("store.pool.hits").add(30);
  registry.counter("store.pool.misses").add(10);
  registry.counter("store.pool.recycled_bytes").add(7777);
  registry.counter("sim.messages_sent").add(55);
  registry.counter("sim.irecv_scanned").add(12);
  registry.histogram("sim.virtual_time_us").record(2500000);
  registry.counter("store.container.frames").add(3);
  registry.counter("record.stage.inflate.calls").add(3);
  registry.counter("record.stage.inflate.bytes_in").add(600);
  registry.counter("record.stage.inflate.bytes_out").add(4096);
  registry.counter("record.stage.inflate.ns").add(1024);
  registry.counter("store.container.epoch_streams").add(4);
  registry.counter("store.container.epoch_fallbacks").add(1);

  const PipelineReport report =
      PipelineReport::from_snapshot(registry.snapshot());
  EXPECT_EQ(report.stage_re.calls, 3u);
  EXPECT_EQ(report.stage_re.bytes_in, 4000u);
  EXPECT_EQ(report.stage_re.bytes_out, 1800u);
  EXPECT_EQ(report.stage_re.values_out, 225u);
  EXPECT_EQ(report.stage_deflate.bytes_out, 600u);
  EXPECT_EQ(report.events_matched, 100u);
  EXPECT_EQ(report.events_unmatched, 7u);
  EXPECT_EQ(report.chunks, 3u);
  EXPECT_EQ(report.frame_bytes_out, 650u);
  EXPECT_EQ(report.epoch_cuts, 2u);
  EXPECT_EQ(report.epoch_deferrals, 1u);
  EXPECT_EQ(report.epoch_flush_events.count, 1u);
  EXPECT_EQ(report.epoch_flush_events.max, 33u);
  EXPECT_EQ(report.pool_hits, 30u);
  EXPECT_EQ(report.pool_misses, 10u);
  EXPECT_EQ(report.pool_recycled_bytes, 7777u);
  EXPECT_DOUBLE_EQ(report.pool_hit_rate(), 0.75);
  // 4096 bytes in 2048 ns = 2 bytes/ns = 2000 MB/s.
  EXPECT_DOUBLE_EQ(report.deflate_mb_per_s(), 2000.0);
  EXPECT_EQ(report.sim_messages, 55u);
  EXPECT_EQ(report.sim_irecv_scanned, 12u);
  EXPECT_DOUBLE_EQ(report.sim_virtual_seconds, 2.5);
  EXPECT_EQ(report.writer_frames, 3u);
  EXPECT_EQ(report.stage_inflate.calls, 3u);
  EXPECT_EQ(report.stage_inflate.bytes_in, 600u);
  EXPECT_EQ(report.stage_inflate.bytes_out, 4096u);
  // Measured on the raw side: 4096 bytes out in 1024 ns = 4000 MB/s.
  EXPECT_DOUBLE_EQ(report.inflate_mb_per_s(), 4000.0);
  EXPECT_EQ(report.epoch_streams, 4u);
  EXPECT_EQ(report.epoch_fallbacks, 1u);
  registry.reset_values();
}

TEST(PipelineReport, ReconcileAcceptsMatchingTotals) {
  PipelineReport report;
  report.chunks = 4;
  report.frame_bytes_out = 1000;
  report.stage_deflate.bytes_out = 900;
  report.container_frames = 4;
  report.container_stored_bytes = 1000;
  report.container_file_bytes = 1200;
  EXPECT_TRUE(report.reconcile());
  EXPECT_EQ(report.reconcile_note,
            "encoder and container byte totals match");
}

TEST(PipelineReport, ReconcileRejectsByteMismatch) {
  PipelineReport report;
  report.chunks = 4;
  report.frame_bytes_out = 1000;
  report.container_frames = 4;
  report.container_stored_bytes = 999;
  EXPECT_FALSE(report.reconcile());
  EXPECT_NE(report.reconcile_note.find("framed bytes"), std::string::npos);
}

TEST(PipelineReport, ReconcileRejectsFrameCountMismatch) {
  PipelineReport report;
  report.chunks = 5;
  report.frame_bytes_out = 1000;
  report.container_frames = 4;
  report.container_stored_bytes = 1000;
  EXPECT_FALSE(report.reconcile());
  EXPECT_NE(report.reconcile_note.find("chunks"), std::string::npos);
}

TEST(PipelineReport, ReconcileRejectsDeflateExceedingFramedBytes) {
  PipelineReport report;
  report.frame_bytes_out = 100;
  report.stage_deflate.bytes_out = 200;
  EXPECT_FALSE(report.reconcile());
}

TEST(PipelineReport, ReconcileSingleSourceIsInternalOnly) {
  PipelineReport container_only;
  container_only.container_frames = 9;
  container_only.container_stored_bytes = 512;
  container_only.container_file_bytes = 600;
  EXPECT_TRUE(container_only.reconcile());
  EXPECT_NE(container_only.reconcile_note.find("single-source"),
            std::string::npos);

  PipelineReport bad_container;
  bad_container.container_frames = 9;
  bad_container.container_stored_bytes = 700;
  bad_container.container_file_bytes = 600;  // frames can't exceed the file
  EXPECT_FALSE(bad_container.reconcile());
}

TEST(PipelineReport, ToJsonIsWellFormed) {
  PipelineReport report;
  report.chunks = 2;
  report.frame_bytes_out = 128;
  report.container_frames = 2;
  report.container_stored_bytes = 128;
  report.container_codec_frames["cdc"] = 2;
  report.reconcile();
  const std::string json = report.to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"report\": \"cdc_pipeline\""), std::string::npos);
  EXPECT_NE(json.find("\"reconciliation\""), std::string::npos);
  EXPECT_NE(json.find("\"decode\""), std::string::npos);
  EXPECT_NE(json.find("\"inflate\""), std::string::npos);
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

  PipelineReport report =
      PipelineReport::from_snapshot(Registry::global().snapshot());
  std::string error;
  ASSERT_TRUE(tool::fill_container_section(file, report, &error)) << error;

  EXPECT_TRUE(report.reconcile()) << report.reconcile_note;
  EXPECT_GT(report.events_matched, 0u);
  EXPECT_GT(report.chunks, 0u);
  EXPECT_EQ(report.chunks, report.container_frames);
  EXPECT_EQ(report.frame_bytes_out, report.container_stored_bytes);
  EXPECT_EQ(report.writer_payload_bytes, report.container_stored_bytes);
  EXPECT_TRUE(report.container_sealed);
  // The sink encoded every chunk the recorder sealed, one buffer-pool
  // hit or miss each.
  EXPECT_EQ(report.pool_hits + report.pool_misses, report.chunks);
  // Stage flow only shrinks: RE output feeds PE, PE feeds LP.
  EXPECT_LE(report.stage_pe.bytes_in, report.stage_re.bytes_out);
  EXPECT_LE(report.stage_lp.bytes_in, report.stage_pe.bytes_out);

  const std::string json = report.to_json();
  EXPECT_TRUE(json_well_formed(json));
  std::remove(file.c_str());
  Registry::global().reset_values();
}

/// sim.max_live_requests is one sample per run, like the queue depth: the
/// report carries the largest run's value.
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
  const PipelineReport report =
      PipelineReport::from_snapshot(Registry::global().snapshot());
  EXPECT_GT(most, 0u);
  EXPECT_EQ(report.sim_max_live_requests, most);
  EXPECT_NE(report.to_json().find("\"max_live_requests\""),
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

  const PipelineReport report =
      PipelineReport::from_snapshot(Registry::global().snapshot());
  EXPECT_EQ(report.exec_runs, 2u);
  EXPECT_EQ(report.exec_workers, 1u);
  EXPECT_EQ(report.sim_max_queue_depth, max_depth);
  EXPECT_DOUBLE_EQ(report.sim_virtual_seconds,
                   static_cast<double>(max_end_us) * 1e-6);
  Registry::global().reset_values();
}

}  // namespace
}  // namespace cdc::obs
