// Crash-safe resume over loopback (DESIGN.md §14): durable resumable
// sessions, batch-seq dedup, RESUME skip-ahead, restart recovery, the
// client's transparent reconnect loop, graceful drain-and-park, the
// fail-before-ack ordering under injected fsync and append faults, and
// opt-in resume.
// Every completed upload is byte-compared against a local rebuild from
// the same seed — the resume machinery must be invisible in the sealed
// container.
#include "net/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "net/client.h"
#include "net/load_gen.h"
#include "store/container_reader.h"
#include "store/resilient.h"
#include "store/session_journal.h"

namespace cdc::net {
namespace {

constexpr const char* kToken = "resume-token";
constexpr const char* kTenant = "acme";

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

class ResumeLoopbackTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kFramesPerBatch = 6;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cdc_resume_test." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    SynthShape shape;
    shape.batches = 5;
    shape.frames_per_batch = kFramesPerBatch;
    shape.payload_bytes = 768;
    shape.streams = 3;
    jobs_ = synth_jobs(/*seed=*/31, shape, compress::DeflateLevel::kFast);
    ASSERT_EQ(jobs_.size(), 5 * kFramesPerBatch);
  }
  void TearDown() override {
    server_.reset();
    if (::getenv("CDC_TEST_KEEP_SCRATCH") == nullptr)
      std::filesystem::remove_all(dir_);
  }

  void start_server(ServerConfig config = {}, std::uint16_t port = 0) {
    config.root_dir = (dir_ / "root").string();
    config.port = port;
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

  std::unique_ptr<Client> dial(const std::string& record, bool resumable,
                               std::string* error_out = nullptr,
                               std::uint32_t max_reconnects = 0) {
    Client::Options options;
    options.port = server_->port();
    options.token = kToken;
    options.record = record;
    options.intent = Intent::kIngest;
    options.level = compress::DeflateLevel::kFast;
    options.resumable = resumable;
    options.max_reconnects = max_reconnects;
    options.timeout_ms = 10000;
    options.connect_timeout_ms = 5000;
    std::string error;
    auto client = Client::connect(options, &error);
    if (error_out != nullptr) *error_out = error;
    return client;
  }

  /// Sends batches [from, to) of the fixture workload, one put() each.
  [[nodiscard]] bool put_batches(Client& client, std::size_t from,
                                 std::size_t to) {
    for (std::size_t b = from; b < to; ++b) {
      if (!client.put(std::vector<WireFrame>(
              jobs_.begin() + b * kFramesPerBatch,
              jobs_.begin() + (b + 1) * kFramesPerBatch)))
        return false;
    }
    return true;
  }

  [[nodiscard]] std::string record_path(const std::string& record) const {
    return (dir_ / "root" / kTenant / (record + ".cdcc")).string();
  }

  /// The sealed record must equal a local rebuild of the whole workload
  /// and pass full container verification.
  void expect_byte_identical(const std::string& record) {
    const std::string local = (dir_ / ("local-" + record)).string();
    std::string error;
    ASSERT_TRUE(write_synth_container(local, jobs_, &error)) << error;
    const auto served = file_bytes(record_path(record));
    ASSERT_FALSE(served.empty());
    EXPECT_EQ(served, file_bytes(local));
    const auto reader = store::ContainerReader::open(record_path(record));
    ASSERT_NE(reader, nullptr);
    EXPECT_TRUE(reader->index_ok());
    EXPECT_TRUE(reader->verify().ok);
    // Seal retires the sidecar: no journal debris next to a sealed record.
    EXPECT_FALSE(std::filesystem::exists(
        store::session_journal_path(record_path(record))));
  }

  template <typename Pred>
  [[nodiscard]] bool wait_for(Pred pred) {
    for (int i = 0; i < 500; ++i) {
      if (pred(server_->stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred(server_->stats());
  }

  std::filesystem::path dir_;
  std::vector<WireFrame> jobs_;
  std::unique_ptr<Server> server_;
};

TEST_F(ResumeLoopbackTest, ReplayedPrefixIsANoOp) {
  // The dedup property: after a disconnect, a fresh client that re-sends
  // EVERY batch from seq 1 must leave the durable prefix untouched — the
  // server re-acks and drops them — and the sealed result is
  // byte-identical to an uninterrupted upload.
  start_server();
  {
    auto client = dial("dedup", /*resumable=*/true);
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(put_batches(*client, 0, 3)) << client->last_error();
    // Wait until at least one batch is journaled-durable before dying, so
    // the re-send genuinely replays acked work.
    ASSERT_TRUE(wait_for([](const Server::Stats& s) {
      return s.frames_ingested >= kFramesPerBatch;
    }));
    // Drop the connection without sealing.
  }
  ASSERT_TRUE(wait_for(
      [](const Server::Stats& s) { return s.sessions_parked >= 1; }));
  EXPECT_TRUE(std::filesystem::exists(record_path("dedup")));
  EXPECT_TRUE(std::filesystem::exists(
      store::session_journal_path(record_path("dedup"))));

  auto client = dial("dedup", /*resumable=*/true);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(put_batches(*client, 0, 5)) << client->last_error();
  Sealed sealed;
  ASSERT_TRUE(client->seal(&sealed)) << client->last_error();
  EXPECT_EQ(sealed.frames, jobs_.size());
  client->bye();

  const Server::Stats stats = server_->stats();
  EXPECT_GE(stats.sessions_resumed, 1u);
  EXPECT_GE(stats.batches_deduped, 1u);
  // Totals count each frame once, dedup or not.
  EXPECT_EQ(stats.frames_ingested, jobs_.size());
  expect_byte_identical("dedup");
}

TEST_F(ResumeLoopbackTest, ResumeSkipAheadSendsOnlyTheRemainder) {
  start_server();
  {
    auto client = dial("skip", /*resumable=*/true);
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(put_batches(*client, 0, 3)) << client->last_error();
    ASSERT_TRUE(wait_for([](const Server::Stats& s) {
      return s.frames_ingested >= kFramesPerBatch;
    }));
  }
  ASSERT_TRUE(wait_for(
      [](const Server::Stats& s) { return s.sessions_parked >= 1; }));

  auto client = dial("skip", /*resumable=*/true);
  ASSERT_NE(client, nullptr);
  Resumed resumed;
  ASSERT_TRUE(client->resume(&resumed)) << client->last_error();
  ASSERT_GE(resumed.last_seq, 1u);
  ASSERT_LE(resumed.last_seq, 3u);
  // The server's high-water mark is exact: whole batches only.
  EXPECT_EQ(resumed.frames_ingested, resumed.last_seq * kFramesPerBatch);
  ASSERT_TRUE(put_batches(*client, resumed.last_seq, 5))
      << client->last_error();
  ASSERT_TRUE(client->seal()) << client->last_error();
  client->bye();
  EXPECT_EQ(server_->stats().batches_deduped, 0u);
  expect_byte_identical("skip");
}

TEST_F(ResumeLoopbackTest, ResumeAfterPutRejected) {
  start_server();
  auto client = dial("late-resume", /*resumable=*/true);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(put_batches(*client, 0, 1)) << client->last_error();
  Resumed resumed;
  // Depending on timing the client sees either the server's kBadMessage
  // ERROR or the in-flight PUT_ACK where RESUMED was expected — both are
  // a failed resume and a dead session.
  EXPECT_FALSE(client->resume(&resumed));
  EXPECT_TRUE(client->failed());
}

TEST_F(ResumeLoopbackTest, RestartRecoversParkedSessions) {
  // The daemon dies (stop() stands in for the crash — the on-disk state
  // is the journaled partial either way) and a new server over the same
  // root must rebuild the resume table and finish the upload.
  start_server();
  {
    auto client = dial("reborn", /*resumable=*/true);
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(put_batches(*client, 0, 2)) << client->last_error();
    ASSERT_TRUE(wait_for([](const Server::Stats& s) {
      return s.frames_ingested >= kFramesPerBatch;
    }));
  }
  ASSERT_TRUE(wait_for(
      [](const Server::Stats& s) { return s.sessions_parked >= 1; }));
  server_.reset();

  start_server();
  EXPECT_EQ(server_->stats().sessions_recovered, 1u);
  auto client = dial("reborn", /*resumable=*/true);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(put_batches(*client, 0, 5)) << client->last_error();
  ASSERT_TRUE(client->seal()) << client->last_error();
  client->bye();
  EXPECT_GE(server_->stats().sessions_resumed, 1u);
  expect_byte_identical("reborn");
}

TEST_F(ResumeLoopbackTest, ClientReconnectsAcrossServerRestart) {
  // The transparent path: the client holds its resend buffer, the server
  // is torn down and replaced mid-upload, and put()/seal() recover
  // without the caller noticing anything but latency.
  start_server();
  const std::uint16_t port = server_->port();
  auto client = dial("phoenix", /*resumable=*/true, nullptr,
                     /*max_reconnects=*/10);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(put_batches(*client, 0, 2)) << client->last_error();
  ASSERT_TRUE(wait_for([](const Server::Stats& s) {
    return s.frames_ingested >= kFramesPerBatch;
  }));
  server_.reset();
  start_server({}, port);
  EXPECT_EQ(server_->stats().sessions_recovered, 1u);

  ASSERT_TRUE(put_batches(*client, 2, 5)) << client->last_error();
  ASSERT_TRUE(client->seal()) << client->last_error();
  EXPECT_GE(client->reconnects(), 1u);
  client->bye();
  expect_byte_identical("phoenix");
}

TEST_F(ResumeLoopbackTest, DrainParksActiveResumableSessions) {
  start_server();
  auto client = dial("drained", /*resumable=*/true);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(put_batches(*client, 0, 3)) << client->last_error();
  ASSERT_TRUE(wait_for([](const Server::Stats& s) {
    return s.frames_ingested >= kFramesPerBatch;
  }));
  EXPECT_TRUE(server_->drain(/*timeout_ms=*/10000));
  EXPECT_GE(server_->stats().sessions_parked, 1u);
  // The journal and partial container survive the drain.
  EXPECT_TRUE(std::filesystem::exists(record_path("drained")));
  EXPECT_TRUE(std::filesystem::exists(
      store::session_journal_path(record_path("drained"))));
  client.reset();
  server_.reset();

  start_server();
  EXPECT_EQ(server_->stats().sessions_recovered, 1u);
  auto finisher = dial("drained", /*resumable=*/true);
  ASSERT_NE(finisher, nullptr);
  ASSERT_TRUE(put_batches(*finisher, 0, 5)) << finisher->last_error();
  ASSERT_TRUE(finisher->seal()) << finisher->last_error();
  finisher->bye();
  expect_byte_identical("drained");
}

TEST_F(ResumeLoopbackTest, FsyncFaultFailsBatchBeforeAck) {
  // The fsync-before-ack regression seam: when the store's durability
  // sync() throws, the batch must fail with kInternal and NO ack — the
  // journal never advances past it — and a later resume finishes the
  // upload byte-identically.
  ServerConfig config;
  int session_index = 0;
  config.store_wrapper =
      [&session_index](runtime::RecordSink* inner)
      -> std::unique_ptr<runtime::RecordSink> {
    // Fault only the first session; the resuming session gets a clean
    // store so recovery can finish.
    if (session_index++ > 0) return nullptr;
    store::IoFaultPlan plan;
    plan.fsync_failure_every_n = 2;  // second batch's sync throws
    return std::make_unique<store::IoFaultStore>(inner, plan);
  };
  start_server(std::move(config));

  {
    auto client = dial("fsynced", /*resumable=*/true);
    ASSERT_NE(client, nullptr);
    bool failed = !put_batches(*client, 0, 5);
    if (!failed) failed = !client->seal();
    ASSERT_TRUE(failed);
    EXPECT_EQ(client->last_code(), ErrCode::kInternal)
        << client->last_error();
  }
  ASSERT_TRUE(wait_for(
      [](const Server::Stats& s) { return s.sessions_parked >= 1; }));
  // Exactly one batch became durable: the faulted second batch was never
  // journaled, so the journal must stop at seq 1.
  const auto state = store::read_session_journal(
      store::session_journal_path(record_path("fsynced")));
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->last_seq, 1u);
  EXPECT_EQ(state->frames_total, kFramesPerBatch);

  auto client = dial("fsynced", /*resumable=*/true);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(put_batches(*client, 0, 5)) << client->last_error();
  ASSERT_TRUE(client->seal()) << client->last_error();
  client->bye();
  EXPECT_GE(server_->stats().batches_deduped, 1u);
  expect_byte_identical("fsynced");
}

TEST_F(ResumeLoopbackTest, AppendFaultFailsBatchBeforeAck) {
  // The append side of the same contract: an I/O error on a frame in the
  // middle of a batch fails that batch with kInternal and NO ack. The
  // frames of it already appended are past the journaled prefix, so a
  // resume truncates them and finishes the upload byte-identically.
  ServerConfig config;
  int session_index = 0;
  config.store_wrapper =
      [&session_index](runtime::RecordSink* inner)
      -> std::unique_ptr<runtime::RecordSink> {
    if (session_index++ > 0) return nullptr;
    store::IoFaultPlan plan;
    // Frame 3 of batch 2 (batches are kFramesPerBatch = 6 frames).
    plan.eio_every_n = kFramesPerBatch + 3;
    return std::make_unique<store::IoFaultStore>(inner, plan);
  };
  start_server(std::move(config));

  {
    auto client = dial("appended", /*resumable=*/true);
    ASSERT_NE(client, nullptr);
    bool failed = !put_batches(*client, 0, 5);
    if (!failed) failed = !client->seal();
    ASSERT_TRUE(failed);
    EXPECT_EQ(client->last_code(), ErrCode::kInternal)
        << client->last_error();
  }
  ASSERT_TRUE(wait_for(
      [](const Server::Stats& s) { return s.sessions_parked >= 1; }));
  // Only batch 1 was acked and journaled.
  EXPECT_EQ(server_->stats().frames_ingested, kFramesPerBatch);
  const auto state = store::read_session_journal(
      store::session_journal_path(record_path("appended")));
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->last_seq, 1u);
  EXPECT_EQ(state->frames_total, kFramesPerBatch);

  auto client = dial("appended", /*resumable=*/true);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(put_batches(*client, 0, 5)) << client->last_error();
  ASSERT_TRUE(client->seal()) << client->last_error();
  client->bye();
  EXPECT_GE(server_->stats().batches_deduped, 1u);
  expect_byte_identical("appended");
}

TEST_F(ResumeLoopbackTest, NonResumableDisconnectStillDiscards) {
  // resumable is opt-in: a session without the flag keeps the original
  // discard-on-disconnect contract.
  start_server();
  {
    auto client = dial("ephemeral", /*resumable=*/false);
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(put_batches(*client, 0, 2)) << client->last_error();
  }
  ASSERT_TRUE(wait_for(
      [](const Server::Stats& s) { return s.sessions_aborted >= 1; }));
  EXPECT_FALSE(std::filesystem::exists(record_path("ephemeral")));
  EXPECT_EQ(server_->stats().sessions_parked, 0u);
}

TEST_F(ResumeLoopbackTest, UnjournaledPartialDiscardedAtStartup) {
  // A container with no sidecar journal (a pre-resume crash leftover)
  // must be swept on start(), not resurrected.
  const auto tenant_dir = dir_ / "root" / kTenant;
  std::filesystem::create_directories(tenant_dir);
  {
    std::ofstream out(tenant_dir / "orphan.cdcc", std::ios::binary);
    out << "CDCCnotasealedcontainer";
  }
  start_server();
  EXPECT_TRUE(wait_for(
      [](const Server::Stats& s) { return s.partials_discarded >= 1; }));
  EXPECT_FALSE(std::filesystem::exists(tenant_dir / "orphan.cdcc"));
}

}  // namespace
}  // namespace cdc::net
