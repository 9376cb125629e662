// The retry path pinned down: transient faults retried to a bit-identical
// record, exhausted retries quarantining exactly the failed frames (with
// their stream positions, round-tripped through the `.cdcq` sidecar, whose
// bytes are pinned), and total backoff inside its analytic bound.
#include "store/resilient.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "runtime/storage.h"

namespace cdc::store {
namespace {

runtime::StreamKey key_of(minimpi::Rank rank, minimpi::CallsiteId callsite) {
  runtime::StreamKey key;
  key.rank = rank;
  key.callsite = callsite;
  return key;
}

std::vector<std::uint8_t> frame(std::uint8_t tag, std::size_t len = 8) {
  std::vector<std::uint8_t> bytes(len);
  for (std::size_t i = 0; i < len; ++i)
    bytes[i] = static_cast<std::uint8_t>(tag + i);
  return bytes;
}

std::string scratch_cdcq() {
  static int counter = 0;
  return (std::filesystem::temp_directory_path() /
          ("cdc_resilient_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".cdcq"))
      .string();
}

/// Delegates appends to a MemoryStore but throws on every sync() — the
/// one scenario IoFaultStore cannot produce (its sync faults always clear
/// on the immediate retry).
class BrokenSyncStore final : public runtime::RecordSink {
 public:
  void append(const runtime::StreamKey& key,
              std::span<const std::uint8_t> bytes) override {
    inner_.append(key, bytes);
  }
  void sync() override { throw runtime::IoError("sync always fails"); }

 private:
  runtime::MemoryStore inner_;
};

TEST(RetryingStore, TransientFaultsRetryToABitIdenticalRecord) {
  // Every third append faults and fails twice before succeeding (k=2 <
  // max_retries): the retried record must match the fault-free one byte
  // for byte, with nothing quarantined.
  runtime::MemoryStore clean;
  runtime::MemoryStore base;
  IoFaultPlan plan;
  plan.eio_every_n = 3;
  plan.failures_per_fault = 2;
  IoFaultStore faulty(&base, plan);
  RetryingStore retrying(&faulty);

  const auto a = key_of(0, 1);
  const auto b = key_of(3, 2);
  for (std::uint8_t i = 0; i < 12; ++i) {
    const auto bytes = frame(i);
    clean.append(i % 2 == 0 ? a : b, bytes);
    retrying.append(i % 2 == 0 ? a : b, bytes);
  }

  EXPECT_GT(retrying.stats().retries, 0u);
  EXPECT_GT(retrying.stats().recoveries, 0u);
  EXPECT_EQ(retrying.stats().quarantined, 0u);
  EXPECT_TRUE(retrying.quarantined().empty());
  ASSERT_EQ(clean.keys(), base.keys());
  for (const runtime::StreamKey& key : clean.keys())
    EXPECT_EQ(clean.read(key), base.read(key));
}

TEST(RetryingStore, ExhaustedRetriesQuarantineExactlyTheFailedFrames) {
  // Hard faults on the 4th and 8th distinct appends: those two frames —
  // and only those — are quarantined, everything else lands in the store,
  // and each quarantined frame carries the stream position it was lost at
  // (3 and 6 successful appends had preceded them).
  runtime::MemoryStore base;
  IoFaultPlan plan;
  plan.hard_every_n = 4;
  IoFaultStore faulty(&base, plan);
  RetryPolicy policy;
  policy.max_retries = 2;  // hard faults never clear; fail fast
  const std::string sidecar = scratch_cdcq();
  RetryingStore retrying(&faulty, policy, sidecar);

  const auto key = key_of(1, 7);
  std::vector<std::uint8_t> survivors;
  for (std::uint8_t i = 0; i < 10; ++i) {
    const auto bytes = frame(i);
    retrying.append(key, bytes);
    if (i != 3 && i != 7)  // the 4th and 8th appends are lost
      survivors.insert(survivors.end(), bytes.begin(), bytes.end());
  }

  EXPECT_EQ(retrying.stats().quarantined, 2u);
  ASSERT_EQ(retrying.quarantined().size(), 2u);
  EXPECT_EQ(retrying.quarantined()[0].bytes, frame(3));
  EXPECT_EQ(retrying.quarantined()[0].seq, 3u);
  EXPECT_EQ(retrying.quarantined()[1].bytes, frame(7));
  EXPECT_EQ(retrying.quarantined()[1].seq, 6u);  // one frame already lost
  EXPECT_EQ(base.read(key), survivors);

  // The `.cdcq` sidecar round-trips keys, stream positions, and payloads —
  // and a trailing corrupt entry must not take the intact ones with it.
  const auto parsed = read_quarantine(sidecar);
  ASSERT_EQ(parsed.size(), 2u);
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].key, retrying.quarantined()[i].key);
    EXPECT_EQ(parsed[i].seq, retrying.quarantined()[i].seq);
    EXPECT_EQ(parsed[i].bytes, retrying.quarantined()[i].bytes);
  }
  {
    std::ofstream out(sidecar, std::ios::binary | std::ios::app);
    const char garbage[] = "\xf8junk";
    out.write(garbage, sizeof garbage - 1);
  }
  EXPECT_EQ(read_quarantine(sidecar).size(), 2u);
  std::filesystem::remove(sidecar);
}

TEST(RetryingStore, BackoffStaysWithinItsAnalyticBound) {
  // Worst-case retry pressure: every append faults and only the last
  // attempt succeeds. Total charged backoff must stay under
  // max_total_backoff_ms() per append and still be exponential (nonzero).
  runtime::MemoryStore base;
  RetryPolicy policy;  // defaults: 5 retries, jittered exponential
  IoFaultPlan plan;
  plan.eio_every_n = 1;
  plan.failures_per_fault = policy.max_retries;
  IoFaultStore faulty(&base, plan);
  RetryingStore retrying(&faulty, policy);

  const auto key = key_of(2, 1);
  constexpr std::uint64_t kAppends = 6;
  for (std::uint8_t i = 0; i < kAppends; ++i) retrying.append(key, frame(i));

  EXPECT_EQ(retrying.stats().quarantined, 0u);
  EXPECT_EQ(retrying.stats().retries,
            kAppends * static_cast<std::uint64_t>(policy.max_retries));
  EXPECT_GT(retrying.stats().backoff_ms_total, 0.0);
  EXPECT_LE(retrying.stats().backoff_ms_total,
            policy.max_total_backoff_ms() * static_cast<double>(kAppends));
}

TEST(RetryingStore, BackoffIsDeterministicPerJitterSeed) {
  const auto run_once = [](std::uint64_t seed) {
    runtime::MemoryStore base;
    IoFaultPlan plan;
    plan.eio_every_n = 2;
    plan.failures_per_fault = 3;
    IoFaultStore faulty(&base, plan);
    RetryPolicy policy;
    policy.jitter_seed = seed;
    RetryingStore retrying(&faulty, policy);
    for (std::uint8_t i = 0; i < 8; ++i)
      retrying.append(key_of(0, 1), frame(i));
    return retrying.stats().backoff_ms_total;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

TEST(RetryingStore, SyncExhaustionIsAbsorbedNotThrown) {
  // A durability barrier that never succeeds weakens the guarantee but
  // must not kill the run: the failure is counted and sync() returns.
  BrokenSyncStore broken;
  RetryPolicy policy;
  policy.max_retries = 2;
  RetryingStore retrying(&broken, policy);
  retrying.append(key_of(0, 1), frame(1));
  EXPECT_NO_THROW(retrying.sync());
  EXPECT_EQ(retrying.stats().sync_failures, 1u);
  EXPECT_EQ(retrying.stats().quarantined, 0u);
}

TEST(RetryingStore, SidecarGoldenBytes) {
  // Hard faults on every third append over three streams (one with a
  // negative rank, a callsite and payloads past one varint byte): the
  // FNV-1a of the `.cdcq` sidecar pins its magic and entry layout.
  runtime::MemoryStore base;
  IoFaultPlan plan;
  plan.hard_every_n = 3;
  IoFaultStore faulty(&base, plan);
  RetryPolicy policy;
  policy.max_retries = 1;
  const std::string sidecar = scratch_cdcq();
  RetryingStore retrying(&faulty, policy, sidecar);
  const runtime::StreamKey keys[] = {key_of(0, 1), key_of(-1, 300),
                                     key_of(767, 2)};
  for (std::uint8_t i = 0; i < 12; ++i)
    retrying.append(keys[i % 3], frame(i, 40 + 37 * i));
  ASSERT_EQ(retrying.stats().quarantined, 4u);

  std::ifstream in(sidecar, std::ios::binary);
  const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()};
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) hash = (hash ^ b) * 0x100000001b3ull;
  EXPECT_EQ(bytes.size(), 1173u);
  EXPECT_EQ(hash, 0x54232e1c9dd8ec0eull);
  EXPECT_EQ(read_quarantine(sidecar).size(), 4u);
  std::filesystem::remove(sidecar);
}

TEST(IoFaultStore, TransientFaultsClearAfterTheConfiguredAttempts) {
  runtime::MemoryStore base;
  IoFaultPlan plan;
  plan.eio_every_n = 1;
  plan.failures_per_fault = 2;
  IoFaultStore faulty(&base, plan);
  const auto key = key_of(0, 1);
  const auto bytes = frame(9);
  EXPECT_THROW(faulty.append(key, bytes), runtime::IoError);
  EXPECT_THROW(faulty.append(key, bytes), runtime::IoError);
  faulty.append(key, bytes);  // third attempt of the same operation
  EXPECT_EQ(base.read(key), bytes);
  EXPECT_EQ(faulty.stats().transient_throws, 2u);
}

}  // namespace
}  // namespace cdc::store
