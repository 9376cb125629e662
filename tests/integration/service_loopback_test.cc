// End-to-end integration of the record service over loopback:
//  * upload through the real Client/NetFrameSink stack and byte-compare
//    the server's sealed container against the local-oracle container;
//  * remote REPLAY_WINDOW versus a local ContainerReader window read,
//    slice for slice;
//  * INSPECT endpoints return well-formed JSON;
//  * the seeded load generator with the full fault plan, oracle-verifying
//    every surviving record against a rebuild from the seed;
//  * put_container (cdc_client put) re-uploading a recorded MCB container
//    byte for byte, and the served copy replaying the recording.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <utility>

#include "apps/mcb.h"
#include "minimpi/simulator.h"
#include "net/client.h"
#include "net/load_gen.h"
#include "net/server.h"
#include "obs/json.h"
#include "store/container_reader.h"
#include "store/container_store.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace cdc::net {
namespace {

constexpr const char* kToken = "integ-token";
constexpr const char* kTenant = "integ";

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

class ServiceLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cdc_service_test." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    // Sixteen frames per batch: a sink upload spans several batches.
    Limits limits;
    limits.max_batch_frames = 16;
    start_server(limits);
  }
  /// (Re)starts the server, negotiating `limits` with every client.
  void start_server(const Limits& limits) {
    server_.reset();
    ServerConfig config;
    config.root_dir = (dir_ / "root").string();
    config.limits = limits;
    TenantConfig tenant;
    tenant.name = kTenant;
    tenant.token = kToken;
    config.tenants.push_back(tenant);
    server_ = std::make_unique<Server>(std::move(config));
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }
  void TearDown() override {
    server_.reset();
    std::filesystem::remove_all(dir_);
  }

  [[nodiscard]] std::string record_path(const std::string& record) const {
    return (dir_ / "root" / kTenant / (record + ".cdcc")).string();
  }

  /// Uploads `jobs` through the real FrameSink seam and seals the record.
  void upload_via_sink(const std::string& record,
                       const std::vector<WireFrame>& jobs) {
    Client::Options options;
    options.port = server_->port();
    options.token = kToken;
    options.record = record;
    options.level = compress::DeflateLevel::kFast;
    std::string error;
    auto client = Client::connect(options, &error);
    ASSERT_NE(client, nullptr) << error;
    NetFrameSink sink(client.get());
    for (const WireFrame& sj : jobs) sink.submit(sj.key, sj.job);
    ASSERT_TRUE(sink.flush()) << client->last_error();
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE(client->seal()) << client->last_error();
    client->bye();
  }

  std::filesystem::path dir_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServiceLoopbackTest, FrameSinkUploadMatchesLocalOracle) {
  SynthShape shape;
  shape.batches = 6;
  shape.frames_per_batch = 8;
  shape.streams = 3;
  const auto jobs = synth_jobs(101, shape, compress::DeflateLevel::kFast);
  upload_via_sink("oracle", jobs);

  const std::string local = (dir_ / "local-oracle.cdcc").string();
  std::string error;
  ASSERT_TRUE(write_synth_container(local, jobs, &error)) << error;
  const auto served = file_bytes(record_path("oracle"));
  ASSERT_FALSE(served.empty());
  EXPECT_EQ(served, file_bytes(local));
}

TEST_F(ServiceLoopbackTest, FrameSinkHonoursNegotiatedLimits) {
  // 32 small frames, then 32 large ones. The server takes at most 16
  // frames per batch, and its body limit holds only four large frames, so
  // the sink splits by frame count first and by bytes after.
  SynthShape small;
  small.batches = 2;
  small.frames_per_batch = 16;
  small.payload_bytes = 256;
  SynthShape large = small;
  large.payload_bytes = 2048;
  auto jobs = synth_jobs(7, small, compress::DeflateLevel::kFast);
  for (WireFrame& frame : synth_jobs(8, large, compress::DeflateLevel::kFast))
    jobs.push_back(std::move(frame));
  ASSERT_EQ(jobs.size(), 64u);

  Limits limits;
  limits.max_batch_frames = 16;
  limits.max_message_body = 10240;
  start_server(limits);
  upload_via_sink("limited", jobs);

  const std::string local = (dir_ / "local-limited.cdcc").string();
  std::string error;
  ASSERT_TRUE(write_synth_container(local, jobs, &error)) << error;
  const auto served = file_bytes(record_path("limited"));
  ASSERT_FALSE(served.empty());
  EXPECT_EQ(served, file_bytes(local));
}

TEST_F(ServiceLoopbackTest, SynthContainerGoldenBytes) {
  // The local oracle every byte-identity check of the service compares
  // against, pinned with and without epoch metadata: if these bytes move,
  // the sealed records the server writes moved with them.
  struct Golden {
    bool epochs;
    std::size_t size;
    std::uint64_t hash;
  };
  for (const Golden& golden : {Golden{true, 26297, 0x412890d597c5b3a7ull},
                               Golden{false, 25733, 0xcdb16d314ff41e79ull}}) {
    SynthShape shape;
    shape.epochs = golden.epochs;
    const std::string local = (dir_ / "golden.cdcc").string();
    std::string error;
    ASSERT_TRUE(write_synth_container(
        local, synth_jobs(101, shape, compress::DeflateLevel::kFast), &error))
        << error;
    const auto bytes = file_bytes(local);
    EXPECT_EQ(bytes.size(), golden.size) << "epochs " << golden.epochs;
    EXPECT_EQ(fnv1a(bytes), golden.hash) << "epochs " << golden.epochs;
    std::filesystem::remove(local);
  }
}

TEST_F(ServiceLoopbackTest, RemoteWindowMatchesLocalReaderSliceForSlice) {
  SynthShape shape;
  shape.batches = 8;
  shape.frames_per_batch = 8;
  shape.streams = 4;
  shape.epochs = true;
  const auto jobs = synth_jobs(202, shape, compress::DeflateLevel::kFast);
  upload_via_sink("windowed", jobs);

  const auto reader = store::ContainerReader::open(record_path("windowed"));
  ASSERT_NE(reader, nullptr);
  ASSERT_TRUE(reader->index_ok());
  ASSERT_TRUE(reader->epoch_index_ok()) << reader->epoch_index_error();

  Client::Options options;
  options.port = server_->port();
  options.token = kToken;
  options.record = "windowed";
  options.intent = Intent::kReplay;
  std::string error;
  auto client = Client::connect(options, &error);
  ASSERT_NE(client, nullptr) << error;

  // Several windows, including empty and past-the-end ranges: the remote
  // answer must match the local reader byte-for-byte, stream by stream.
  const std::pair<std::uint64_t, std::uint64_t> windows[] = {
      {0, 1}, {1, 3}, {2, 100}, {0, 1000}, {50, 60}};
  for (const auto& [lo, hi] : windows) {
    std::vector<WindowStream> streams;
    WindowDone done;
    ASSERT_TRUE(client->replay_window(lo, hi, &streams, &done))
        << client->last_error();
    EXPECT_EQ(done.streams, streams.size());
    ASSERT_FALSE(streams.empty());
    for (const WindowStream& ws : streams) {
      const auto local = reader->read_stream_window(ws.key, lo, hi);
      EXPECT_EQ(ws.bytes, local.bytes)
          << "window [" << lo << ", " << hi << ") rank " << ws.key.rank;
      EXPECT_EQ(ws.first_epoch, local.first_epoch);
      EXPECT_EQ(ws.seeked, local.seeked);
    }
    EXPECT_EQ(done.all_seeked,
              std::all_of(streams.begin(), streams.end(),
                          [](const WindowStream& ws) { return ws.seeked; }));
  }
  client->bye();
}

TEST_F(ServiceLoopbackTest, InspectEndpointsReturnWellFormedJson) {
  SynthShape shape;
  shape.batches = 3;
  const auto jobs = synth_jobs(303, shape, compress::DeflateLevel::kFast);
  upload_via_sink("inspected", jobs);

  Client::Options options;
  options.port = server_->port();
  options.token = kToken;
  options.record = "inspected";
  options.intent = Intent::kReplay;
  std::string error;
  auto client = Client::connect(options, &error);
  ASSERT_NE(client, nullptr) << error;
  for (const InspectKind kind :
       {InspectKind::kVerify, InspectKind::kPipeline, InspectKind::kGaps}) {
    std::string json;
    ASSERT_TRUE(client->inspect(kind, &json)) << client->last_error();
    EXPECT_TRUE(obs::json_well_formed(json))
        << "kind " << static_cast<int>(kind) << ": " << json;
  }
  // The verify report must assert the container is intact.
  std::string verify_json;
  ASSERT_TRUE(client->inspect(InspectKind::kVerify, &verify_json));
  EXPECT_NE(verify_json.find("\"ok\": true"), std::string::npos)
      << verify_json;
  client->bye();
}

TEST_F(ServiceLoopbackTest, PutContainerServesTheSameBytes) {
  // A recorded container re-uploaded frame by frame comes back byte for
  // byte at the level it was recorded at, and replays the recording at
  // any level.
  constexpr int kRanks = 9;
  apps::McbConfig mcb;
  mcb.grid_x = 3;
  mcb.grid_y = 3;
  mcb.particles_per_rank = 40;
  tool::ToolOptions tool_options;
  tool_options.chunk_target = 64;  // several frames per stream
  // Chunks this small deflate to the same bytes at the fast, default and
  // best levels, so the recording is stored: a copy at kFast must differ.
  tool_options.level = compress::DeflateLevel::kStored;
  const auto simulator_config = [](std::uint64_t noise_seed) {
    minimpi::Simulator::Config config;
    config.num_ranks = kRanks;
    config.noise_seed = noise_seed;
    return config;
  };
  const auto record = [&](const tool::ToolOptions& options,
                          const std::string& path) {
    store::ContainerStore container(path);
    tool::Recorder recorder(kRanks, &container, options);
    minimpi::Simulator sim(simulator_config(11), &recorder);
    (void)apps::run_mcb(sim, mcb);
    recorder.finalize();
    container.seal();
    return recorder.order_digest();
  };
  const std::string source = (dir_ / "source.cdcc").string();
  const std::uint64_t recorded_digest = record(tool_options, source);
  const auto expect_replays_recording = [&](const std::string& name) {
    const auto served = store::ContainerStore::open(record_path(name));
    tool::Replayer replayer(kRanks, served.get(), tool_options);
    minimpi::Simulator sim(simulator_config(99), &replayer);
    (void)apps::run_mcb(sim, mcb);
    EXPECT_EQ(replayer.order_digest(), recorded_digest) << name;
    EXPECT_TRUE(replayer.fully_replayed()) << name;
  };

  Client::Options options;
  options.port = server_->port();
  options.token = kToken;
  options.record = "same-level";
  options.level = tool_options.level;
  Sealed sealed;
  std::string error;
  ASSERT_TRUE(put_container(options, source, &sealed, &error)) << error;
  EXPECT_TRUE(same_file_bytes(record_path("same-level"), source, &error))
      << error;
  expect_replays_recording("same-level");

  options.record = "fast";
  options.level = compress::DeflateLevel::kFast;
  ASSERT_TRUE(put_container(options, source, &sealed, &error)) << error;
  EXPECT_FALSE(same_file_bytes(record_path("fast"), source, &error));
  expect_replays_recording("fast");

  // The "w/o Compression" baseline keeps its frames uncompressed at a
  // compressing level, as the recorder frames them.
  tool::ToolOptions raw_options;
  raw_options.codec = tool::RecordCodec::kBaselineRaw;
  const std::string raw = (dir_ / "raw.cdcc").string();
  (void)record(raw_options, raw);
  options.record = "raw";
  options.level = raw_options.level;
  ASSERT_TRUE(put_container(options, raw, &sealed, &error)) << error;
  EXPECT_TRUE(same_file_bytes(record_path("raw"), raw, &error)) << error;

  // A damaged source is refused, not copied without its bad frame.
  std::vector<std::uint8_t> bytes = file_bytes(source);
  bytes.at(300) ^= 0x42;  // inside the frame region
  const std::string damaged = (dir_ / "damaged.cdcc").string();
  std::ofstream(damaged, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  options.record = "damaged";
  EXPECT_FALSE(put_container(options, damaged, &sealed, &error));
  EXPECT_FALSE(std::filesystem::exists(record_path("damaged")));
}

TEST_F(ServiceLoopbackTest, SeededLoadWithFaultPlanIsOracleClean) {
  LoadConfig config;
  config.port = server_->port();
  config.token = kToken;
  config.clients = 12;
  config.seed = 424242;
  config.level = compress::DeflateLevel::kFast;
  config.shape.batches = 4;
  config.shape.frames_per_batch = 8;
  config.shape.payload_bytes = 1024;
  config.faults.slow_pct = 10;
  config.faults.disconnect_pct = 10;
  config.faults.duplicate_pct = 10;
  config.faults.garbage_pct = 10;
  config.faults.oversized_pct = 10;
  config.server_root = (dir_ / "root").string();
  config.tenant = kTenant;
  config.scratch_dir = (dir_ / "scratch").string();

  const LoadReport report = run_load(config);
  for (const std::string& e : report.errors) ADD_FAILURE() << e;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.clients, 12u);
  EXPECT_EQ(report.unexpected_failures, 0u);
  EXPECT_GT(report.sealed, 0u);
  EXPECT_GT(report.expected_failures, 0u);  // the fault plan actually ran
  EXPECT_EQ(report.verified, report.sealed);
  EXPECT_EQ(report.verify_failures, 0u);
  EXPECT_GT(report.frames_acked, 0u);
  EXPECT_GT(report.latency_samples, 0u);

  // The server survived the abuse and its books balance.
  const Server::Stats stats = server_->stats();
  EXPECT_GE(stats.sessions_sealed, report.sealed);
  EXPECT_GT(stats.errors_sent, 0u);
}

}  // namespace
}  // namespace cdc::net
