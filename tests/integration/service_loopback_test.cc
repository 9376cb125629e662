// End-to-end integration of the record service over loopback:
//  * upload through the real Client/NetFrameSink stack and byte-compare
//    the server's sealed container against the local-oracle container;
//  * remote REPLAY_WINDOW versus a local ContainerReader window read,
//    slice for slice;
//  * INSPECT endpoints return well-formed JSON;
//  * the seeded load generator with the full fault plan, oracle-verifying
//    every surviving record against a rebuild from the seed.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "net/client.h"
#include "net/load_gen.h"
#include "net/server.h"
#include "obs/json.h"
#include "store/container_reader.h"

namespace cdc::net {
namespace {

constexpr const char* kToken = "integ-token";
constexpr const char* kTenant = "integ";

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

class ServiceLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cdc_service_test." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    ServerConfig config;
    config.root_dir = (dir_ / "root").string();
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
                       const std::vector<SynthJob>& jobs) {
    Client::Options options;
    options.port = server_->port();
    options.token = kToken;
    options.record = record;
    options.level = compress::DeflateLevel::kFast;
    std::string error;
    auto client = Client::connect(options, &error);
    ASSERT_NE(client, nullptr) << error;
    NetFrameSink sink(client.get(), /*max_batch_frames=*/16);
    for (const SynthJob& sj : jobs) sink.submit(sj.key, sj.job);
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
