// Loopback tests for the record/replay server: the full per-connection
// state machine (auth, quotas, ingest, seal, replay, inspect) plus the
// failure paths — bad tokens, bad versions, hostile record names, garbage
// bytes, oversized frames, mid-stream disconnects — and the backpressure
// seam (slow-reader suspension under a throttled session worker).
#include "net/server.h"

#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "net/client.h"
#include "net/load_gen.h"
#include "store/container_reader.h"
#include "support/binary.h"

namespace cdc::net {
namespace {

constexpr const char* kToken = "test-token";
constexpr const char* kTenant = "acme";

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

class ServerLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cdc_server_test." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    server_.reset();
    // Set CDC_TEST_KEEP_SCRATCH to inspect server-side containers after
    // a failing run.
    if (::getenv("CDC_TEST_KEEP_SCRATCH") == nullptr)
      std::filesystem::remove_all(dir_);
  }

  /// Starts a server rooted in the scratch dir with one tenant.
  void start_server(ServerConfig config = {}) {
    config.root_dir = (dir_ / "root").string();
    if (config.tenants.empty()) {
      TenantConfig tenant;
      tenant.name = kTenant;
      tenant.token = kToken;
      config.tenants.push_back(tenant);
    }
    server_ = std::make_unique<Server>(std::move(config));
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    ASSERT_NE(server_->port(), 0);
  }

  std::unique_ptr<Client> dial(const std::string& record,
                               Intent intent = Intent::kIngest,
                               std::string* error_out = nullptr,
                               const std::string& token = kToken) {
    Client::Options options;
    options.port = server_->port();
    options.token = token;
    options.record = record;
    options.intent = intent;
    options.level = compress::DeflateLevel::kFast;
    std::string error;
    auto client = Client::connect(options, &error);
    if (error_out != nullptr) *error_out = error;
    return client;
  }

  [[nodiscard]] std::string record_path(const std::string& record) const {
    return (dir_ / "root" / kTenant / (record + ".cdcc")).string();
  }

  /// Uploads the deterministic synth workload and seals it.
  void upload_record(const std::string& record, std::uint64_t seed,
                     const SynthShape& shape) {
    auto client = dial(record);
    ASSERT_NE(client, nullptr);
    const auto jobs =
        synth_jobs(seed, shape, compress::DeflateLevel::kFast);
    ASSERT_TRUE(client->put(jobs)) << client->last_error();
    Sealed sealed;
    ASSERT_TRUE(client->seal(&sealed)) << client->last_error();
    EXPECT_GT(sealed.frames, 0u);
    client->bye();
  }

  /// Polls server stats until `pred` holds or ~2s elapse.
  template <typename Pred>
  [[nodiscard]] bool wait_for(Pred pred) {
    for (int i = 0; i < 200; ++i) {
      if (pred(server_->stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred(server_->stats());
  }

  std::filesystem::path dir_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerLoopbackTest, IngestSealByteIdenticalAcrossSinkModes) {
  // The oracle of the whole service: the container the server seals
  // equals byte-for-byte the container the same jobs write through a
  // local InlineFrameSink.
  SynthShape shape;
  shape.batches = 4;
  shape.frames_per_batch = 8;
  start_server();
  upload_record("rec", 7, shape);

  const auto jobs = synth_jobs(7, shape, compress::DeflateLevel::kFast);
  const std::string local = (dir_ / "local-rec.cdcc").string();
  std::string error;
  ASSERT_TRUE(write_synth_container(local, jobs, &error)) << error;
  const auto served = file_bytes(record_path("rec"));
  ASSERT_FALSE(served.empty());
  EXPECT_EQ(served, file_bytes(local));

  const auto reader = store::ContainerReader::open(record_path("rec"));
  ASSERT_NE(reader, nullptr);
  EXPECT_TRUE(reader->index_ok());
  EXPECT_TRUE(reader->verify().ok);
}

TEST_F(ServerLoopbackTest, BadTokenRejected) {
  start_server();
  std::string error;
  auto client = dial("rec", Intent::kIngest, &error, "wrong-token");
  EXPECT_EQ(client, nullptr);
  EXPECT_NE(error.find("token"), std::string::npos) << error;
  EXPECT_TRUE(wait_for(
      [](const Server::Stats& s) { return s.errors_sent >= 1; }));
}

TEST_F(ServerLoopbackTest, BadVersionRejected) {
  start_server();
  // Handcraft HELLOs announcing protocol versions 99 and 1 over a raw
  // socket — the Client always speaks the current version, so go
  // underneath it. Version 1's body had no flags byte; neither has this.
  for (const std::uint64_t version : {std::uint64_t{99}, std::uint64_t{1}}) {
    SCOPED_TRACE(version);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)), 0);

    support::ByteWriter body;
    body.sized_bytes({reinterpret_cast<const std::uint8_t*>(kToken),
                      std::string_view(kToken).size()});
    const std::string_view record = "rec";
    body.sized_bytes({reinterpret_cast<const std::uint8_t*>(record.data()),
                      record.size()});
    body.u8(static_cast<std::uint8_t>(Intent::kIngest));
    body.u8(static_cast<std::uint8_t>(compress::DeflateLevel::kFast));
    const auto wire = encode_message(MsgType::kHello, version, body.view());
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));

    WireParser parser;
    Message msg;
    bool got = false;
    for (int i = 0; i < 100 && !got; ++i) {
      std::uint8_t buf[512];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      parser.feed({buf, static_cast<std::size_t>(n)});
      got = parser.next(&msg) == WireParser::Status::kMessage;
    }
    ::close(fd);
    ASSERT_TRUE(got);
    ASSERT_EQ(msg.type, MsgType::kError);
    EXPECT_EQ(static_cast<ErrCode>(msg.meta), ErrCode::kBadVersion);
  }
}

TEST_F(ServerLoopbackTest, HostileRecordNamesRejected) {
  start_server();
  for (const char* name :
       {"", "../evil", "a/b", ".hidden", "bad name",
        "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
        "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
        "xx"}) {
    std::string error;
    EXPECT_EQ(dial(name, Intent::kIngest, &error), nullptr) << name;
  }
  // Nothing escaped the tenant directory (or was created at all — the
  // tenant dir itself only appears on the first accepted HELLO).
  EXPECT_FALSE(std::filesystem::exists(dir_ / "root" / "evil.cdcc"));
  const auto tenant_dir = dir_ / "root" / kTenant;
  EXPECT_TRUE(!std::filesystem::exists(tenant_dir) ||
              std::filesystem::is_empty(tenant_dir));
}

TEST_F(ServerLoopbackTest, DuplicateRecordNameRejected) {
  start_server();
  SynthShape shape;
  shape.batches = 1;
  upload_record("dup", 3, shape);
  std::string error;
  EXPECT_EQ(dial("dup", Intent::kIngest, &error), nullptr);
  EXPECT_NE(error.find("exists"), std::string::npos) << error;
}

TEST_F(ServerLoopbackTest, ByteQuotaExhaustionAbortsRecord) {
  ServerConfig config;
  TenantConfig tenant;
  tenant.name = kTenant;
  tenant.token = kToken;
  tenant.max_bytes = 16 << 10;  // far below the workload's raw bytes
  config.tenants.push_back(tenant);
  start_server(std::move(config));

  auto client = dial("big");
  ASSERT_NE(client, nullptr);
  SynthShape shape;
  shape.batches = 8;
  shape.frames_per_batch = 16;
  shape.payload_bytes = 4096;
  const auto jobs = synth_jobs(11, shape, compress::DeflateLevel::kFast);
  // Either the put or the seal must surface the quota error.
  bool failed = !client->put(jobs);
  if (!failed) failed = !client->seal();
  ASSERT_TRUE(failed);
  EXPECT_EQ(client->last_code(), ErrCode::kQuota) << client->last_error();
  client.reset();
  // The partial record was discarded: quota failures don't leave debris.
  EXPECT_TRUE(wait_for(
      [](const Server::Stats& s) { return s.sessions_aborted >= 1; }));
  EXPECT_FALSE(std::filesystem::exists(record_path("big")));
}

TEST_F(ServerLoopbackTest, RecordCountQuotaRejectsHello) {
  ServerConfig config;
  TenantConfig tenant;
  tenant.name = kTenant;
  tenant.token = kToken;
  tenant.max_records = 1;
  config.tenants.push_back(tenant);
  start_server(std::move(config));
  SynthShape shape;
  shape.batches = 1;
  upload_record("only", 5, shape);
  std::string error;
  EXPECT_EQ(dial("second", Intent::kIngest, &error), nullptr);
  EXPECT_EQ(dial("second", Intent::kIngest, &error), nullptr);
  EXPECT_NE(error.find("quota"), std::string::npos) << error;
}

TEST_F(ServerLoopbackTest, PutAfterSealRejected) {
  start_server();
  auto client = dial("sealed-rec");
  ASSERT_NE(client, nullptr);
  SynthShape shape;
  shape.batches = 1;
  const auto jobs = synth_jobs(9, shape, compress::DeflateLevel::kFast);
  ASSERT_TRUE(client->put(jobs));
  ASSERT_TRUE(client->seal());
  // The offending put may succeed locally (it rides inside the ack
  // window); the server's ERROR surfaces on the next read.
  if (client->put(jobs)) {
    std::string json;
    EXPECT_FALSE(client->inspect(InspectKind::kVerify, &json));
  }
  EXPECT_TRUE(client->failed());
  EXPECT_NE(client->last_error().find("after SEAL"), std::string::npos)
      << client->last_error();
}

TEST_F(ServerLoopbackTest, GarbageBytesGetErrorAndAbort) {
  start_server();
  auto client = dial("garbled");
  ASSERT_NE(client, nullptr);
  std::vector<std::uint8_t> noise(64, 0x00);  // 0x00 != frame magic
  ASSERT_TRUE(client->send_raw(noise));
  // The next protocol exchange surfaces the server's ERROR.
  EXPECT_FALSE(client->seal());
  client.reset();
  EXPECT_TRUE(wait_for([](const Server::Stats& s) {
    return s.errors_sent >= 1 && s.sessions_aborted >= 1;
  }));
  EXPECT_FALSE(std::filesystem::exists(record_path("garbled")));
}

TEST_F(ServerLoopbackTest, OversizedFrameRejected) {
  ServerConfig config;
  config.limits.max_frame_bytes = 1 << 10;
  start_server(std::move(config));
  auto client = dial("fat");
  ASSERT_NE(client, nullptr);
  WireFrame frame;
  frame.key = runtime::StreamKey{0, 1};
  frame.job.codec = 0x01;
  frame.job.compress = false;
  frame.job.payload.assign((1 << 10) + 1, 0xAB);
  bool failed = !client->put({frame});
  if (!failed) failed = !client->seal();
  EXPECT_TRUE(failed);
  EXPECT_EQ(client->last_code(), ErrCode::kOversized)
      << client->last_error();
  client.reset();
  EXPECT_TRUE(wait_for(
      [](const Server::Stats& s) { return s.sessions_aborted >= 1; }));
  EXPECT_FALSE(std::filesystem::exists(record_path("fat")));
}

TEST_F(ServerLoopbackTest, MalformedBatchGetsBadMessage) {
  // A batch that breaks the format (frame flag 4 means nothing) is a
  // protocol violation, not a size breach.
  start_server();
  auto client = dial("garbled-batch");
  ASSERT_NE(client, nullptr);
  support::ByteWriter body;
  body.varint(1);  // frame count
  body.svarint(0);
  body.varint(1);
  body.u8(0x01);  // codec
  body.varint(0);  // meta
  body.u8(4);      // frame flags
  const std::uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  body.sized_bytes(payload);
  ASSERT_TRUE(
      client->send_raw(encode_message(MsgType::kPutFrames, 1, body.view())));
  EXPECT_FALSE(client->seal());
  EXPECT_EQ(client->last_code(), ErrCode::kBadMessage)
      << client->last_error();
  client.reset();
  EXPECT_TRUE(wait_for(
      [](const Server::Stats& s) { return s.sessions_aborted >= 1; }));
  EXPECT_FALSE(std::filesystem::exists(record_path("garbled-batch")));
}

TEST_F(ServerLoopbackTest, OversizedMessageGetsOversized) {
  // A length prefix above the lowered max_message_body is a size breach,
  // answered with the same code as a batch over its frame limits.
  ServerConfig config;
  config.limits.max_message_body = 1 << 12;
  start_server(std::move(config));
  auto client = dial("fat-message");
  ASSERT_NE(client, nullptr);
  support::ByteWriter header;
  header.u8(tool::kFrameMagic);
  header.u8(static_cast<std::uint8_t>(MsgType::kPutFrames));
  header.u8(1);  // stored_raw
  header.varint(1);
  header.varint((1 << 12) + 1);  // raw_len
  header.varint((1 << 12) + 1);  // body_len
  ASSERT_TRUE(client->send_raw(header.view()));
  EXPECT_FALSE(client->seal());
  EXPECT_EQ(client->last_code(), ErrCode::kOversized)
      << client->last_error();
  client.reset();
  EXPECT_TRUE(wait_for(
      [](const Server::Stats& s) { return s.sessions_aborted >= 1; }));
  EXPECT_FALSE(std::filesystem::exists(record_path("fat-message")));
}

TEST_F(ServerLoopbackTest, DisconnectMidIngestDiscardsPartialRecord) {
  start_server();
  {
    auto client = dial("vanishing");
    ASSERT_NE(client, nullptr);
    SynthShape shape;
    shape.batches = 2;
    const auto jobs = synth_jobs(13, shape, compress::DeflateLevel::kFast);
    ASSERT_TRUE(client->put(jobs));
    // Drop the connection without sealing.
  }
  EXPECT_TRUE(wait_for(
      [](const Server::Stats& s) { return s.sessions_aborted >= 1; }));
  EXPECT_FALSE(std::filesystem::exists(record_path("vanishing")));
  EXPECT_FALSE(
      std::filesystem::exists(record_path("vanishing") + ".cdcq"));
}

TEST_F(ServerLoopbackTest, BackpressureSuspendsSlowConsumerSessions) {
  // A one-batch queue plus a throttled session worker forces the event
  // thread to park batches and stop reading the socket; the record must
  // still arrive intact (and byte-identical) out the other side.
  ServerConfig config;
  config.ingest_queue_batches = 1;
  config.ingest_delay_us = 2000;
  start_server(std::move(config));

  auto client = dial("pressured");
  ASSERT_NE(client, nullptr);
  SynthShape shape;
  shape.batches = 1;
  shape.frames_per_batch = 4;
  shape.payload_bytes = 512;
  const auto jobs = synth_jobs(17, shape, compress::DeflateLevel::kFast);
  // Many small batches, pushed faster than the worker drains.
  for (int i = 0; i < 32; ++i)
    ASSERT_TRUE(client->put(jobs)) << client->last_error();
  ASSERT_TRUE(client->seal()) << client->last_error();
  client->bye();

  const Server::Stats stats = server_->stats();
  EXPECT_GT(stats.backpressure_suspensions, 0u);
  EXPECT_EQ(stats.sessions_sealed, 1u);

  // Oracle: the same 32× workload written locally.
  std::vector<WireFrame> all;
  for (int i = 0; i < 32; ++i)
    all.insert(all.end(), jobs.begin(), jobs.end());
  const std::string local = (dir_ / "local-pressured.cdcc").string();
  std::string error;
  ASSERT_TRUE(write_synth_container(local, all, &error)) << error;
  EXPECT_EQ(file_bytes(record_path("pressured")), file_bytes(local));
}

TEST_F(ServerLoopbackTest, ReplayRequiresSealedRecord) {
  start_server();
  std::string error;
  EXPECT_EQ(dial("missing", Intent::kReplay, &error), nullptr);
  EXPECT_NE(error.find("record"), std::string::npos) << error;
}

TEST_F(ServerLoopbackTest, ReplayWindowValidatesRange) {
  start_server();
  SynthShape shape;
  shape.batches = 2;
  upload_record("windowed", 21, shape);
  auto client = dial("windowed", Intent::kReplay);
  ASSERT_NE(client, nullptr);
  std::vector<WindowStream> streams;
  WindowDone done;
  // lo >= hi is an operator error, same contract as record_inspector.
  EXPECT_FALSE(client->replay_window(6, 4, &streams, &done));
  EXPECT_EQ(client->last_code(), ErrCode::kBadMessage);
}

TEST_F(ServerLoopbackTest, StatsAddUp) {
  start_server();
  SynthShape shape;
  shape.batches = 2;
  shape.frames_per_batch = 4;
  upload_record("counted", 23, shape);
  EXPECT_TRUE(wait_for([](const Server::Stats& s) {
    return s.connections_closed >= 1;
  }));
  const Server::Stats stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_sealed, 1u);
  EXPECT_EQ(stats.sessions_aborted, 0u);
  EXPECT_EQ(stats.frames_ingested, 8u);
  EXPECT_EQ(stats.errors_sent, 0u);
}

}  // namespace
}  // namespace cdc::net
