// The session-journal durability contract (DESIGN.md §14): the reader
// must take the longest valid prefix of whatever bytes survive a crash,
// and a surviving prefix must never promise more progress than an entry
// that was fully written and fsync'd. The truncation sweep is the core:
// for EVERY byte length of a complete journal, the recovered state must
// equal the state after some whole number of appended batches — a torn
// tail can lose acked work back below the durability line, but can never
// invent it.
#include "store/session_journal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <vector>

namespace cdc::store {
namespace {

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The per-batch inputs of one append_batch call, so tests can replay the
/// same sequence and record the expected state after each prefix.
struct BatchFixture {
  std::uint64_t seq = 0;
  std::vector<std::optional<runtime::EpochMeta>> metas;
  std::uint64_t frames_total = 0;
  std::uint64_t raw_bytes_total = 0;
  std::uint64_t container_bytes = 0;
};

std::vector<BatchFixture> fixture_batches() {
  std::vector<BatchFixture> batches;
  std::uint64_t frames = 0;
  std::uint64_t raw = 0;
  std::uint64_t container = 8;  // header
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    BatchFixture b;
    b.seq = seq;
    for (std::uint64_t f = 0; f < 2 + seq; ++f) {
      std::optional<runtime::EpochMeta> meta;
      if (f % 2 == 0) meta = runtime::EpochMeta{10 * seq + f, f};
      b.metas.push_back(meta);
    }
    frames += b.metas.size();
    raw += 100 * seq;
    container += 50 * seq + 7;
    b.frames_total = frames;
    b.raw_bytes_total = raw;
    b.container_bytes = container;
    batches.push_back(std::move(b));
  }
  return batches;
}

class SessionJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cdc_journal_test." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "rec.cdcc.cdcj").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes the fixture journal, capturing the file length after the
  /// header and after each entry (the valid-prefix boundaries).
  void write_fixture(std::vector<std::uint64_t>* boundaries) {
    auto journal = SessionJournal::create(path_, "acme", "rec", 2);
    ASSERT_NE(journal, nullptr);
    boundaries->push_back(std::filesystem::file_size(path_));
    for (const BatchFixture& b : fixture_batches()) {
      ASSERT_TRUE(journal->append_batch(b.seq, b.metas, b.frames_total,
                                        b.raw_bytes_total,
                                        b.container_bytes));
      boundaries->push_back(std::filesystem::file_size(path_));
    }
  }

  /// Asserts `state` equals the fixture state after `entries` batches.
  void expect_state(const JournalState& state, std::uint64_t entries) {
    const auto batches = fixture_batches();
    ASSERT_LE(entries, batches.size());
    EXPECT_EQ(state.tenant, "acme");
    EXPECT_EQ(state.record, "rec");
    EXPECT_EQ(state.level, 2);
    EXPECT_EQ(state.entries, entries);
    if (entries == 0) {
      EXPECT_EQ(state.last_seq, 0u);
      EXPECT_EQ(state.frames_total, 0u);
      EXPECT_EQ(state.raw_bytes_total, 0u);
      EXPECT_TRUE(state.metas.empty());
      return;
    }
    const BatchFixture& last = batches[entries - 1];
    EXPECT_EQ(state.last_seq, last.seq);
    EXPECT_EQ(state.frames_total, last.frames_total);
    EXPECT_EQ(state.raw_bytes_total, last.raw_bytes_total);
    EXPECT_EQ(state.container_bytes, last.container_bytes);
    std::vector<std::optional<runtime::EpochMeta>> expected;
    for (std::uint64_t i = 0; i < entries; ++i)
      expected.insert(expected.end(), batches[i].metas.begin(),
                      batches[i].metas.end());
    EXPECT_TRUE(state.metas == expected);
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(SessionJournalTest, RoundTrip) {
  std::vector<std::uint64_t> boundaries;
  write_fixture(&boundaries);
  const auto state = read_session_journal(path_);
  ASSERT_TRUE(state.has_value());
  expect_state(*state, 3);
}

TEST_F(SessionJournalTest, EmptyJournalIsValidZeroProgress) {
  auto journal = SessionJournal::create(path_, "acme", "rec", 2);
  ASSERT_NE(journal, nullptr);
  journal.reset();
  const auto state = read_session_journal(path_);
  ASSERT_TRUE(state.has_value());
  expect_state(*state, 0);
}

TEST_F(SessionJournalTest, MissingFileAndBadMagicAreNotJournals) {
  EXPECT_FALSE(read_session_journal(path_).has_value());
  write_bytes(path_, {'N', 'O', 'T', 'A', 'J', 'R', 'N', 'L'});
  EXPECT_FALSE(read_session_journal(path_).has_value());
  // A correct magic with a torn header is equally useless: nothing about
  // the session can be trusted.
  write_bytes(path_, {'C', 'D', 'C', 'J', 'R', 'N', 'L', '1'});
  EXPECT_FALSE(read_session_journal(path_).has_value());
}

TEST_F(SessionJournalTest, EveryByteTruncationNeverOverPromises) {
  // The crash model: the file system may persist any prefix of the bytes
  // we wrote. For every possible prefix length, recovery must yield
  // either "not a journal" (prefix inside the header) or exactly the
  // state after k complete batches for the largest k whose bytes fit.
  std::vector<std::uint64_t> boundaries;
  write_fixture(&boundaries);
  const std::vector<std::uint8_t> full = file_bytes(path_);
  ASSERT_EQ(full.size(), boundaries.back());

  const std::string trunc = (dir_ / "trunc.cdcj").string();
  for (std::size_t len = 0; len <= full.size(); ++len) {
    write_bytes(trunc, {full.begin(), full.begin() + len});
    const auto state = read_session_journal(trunc);
    if (len < boundaries[0]) {
      // Not even the header survived — the session is unrecoverable.
      EXPECT_FALSE(state.has_value()) << "len " << len;
      continue;
    }
    ASSERT_TRUE(state.has_value()) << "len " << len;
    std::uint64_t entries = 0;
    while (entries + 1 < boundaries.size() && boundaries[entries + 1] <= len)
      ++entries;
    expect_state(*state, entries);
  }
}

TEST_F(SessionJournalTest, CorruptedEntryDropsItselfAndItsSuccessors) {
  std::vector<std::uint64_t> boundaries;
  write_fixture(&boundaries);
  std::vector<std::uint8_t> bytes = file_bytes(path_);
  // Flip one byte inside entry 2's block: its CRC fails, so recovery must
  // stop at entry 1 — a bad block ends the trustworthy prefix even when
  // good-looking bytes follow it.
  const std::uint64_t entry2_at = boundaries[1];
  ASSERT_LT(entry2_at + 2, bytes.size());
  bytes[entry2_at + 2] ^= 0x40;
  write_bytes(path_, bytes);
  const auto state = read_session_journal(path_);
  ASSERT_TRUE(state.has_value());
  expect_state(*state, 1);
}

TEST_F(SessionJournalTest, OpenAppendContinuesWhereCreateLeftOff) {
  const auto batches = fixture_batches();
  {
    auto journal = SessionJournal::create(path_, "acme", "rec", 2);
    ASSERT_NE(journal, nullptr);
    ASSERT_TRUE(journal->append_batch(
        batches[0].seq, batches[0].metas, batches[0].frames_total,
        batches[0].raw_bytes_total, batches[0].container_bytes));
  }
  // The daemon restarted: the journal is validated, then reopened for
  // appends, and the next entries must parse as one continuous log.
  {
    auto journal = SessionJournal::open_append(path_);
    ASSERT_NE(journal, nullptr);
    for (std::size_t i = 1; i < batches.size(); ++i)
      ASSERT_TRUE(journal->append_batch(
          batches[i].seq, batches[i].metas, batches[i].frames_total,
          batches[i].raw_bytes_total, batches[i].container_bytes));
  }
  const auto state = read_session_journal(path_);
  ASSERT_TRUE(state.has_value());
  expect_state(*state, 3);
}

TEST_F(SessionJournalTest, SidecarPathIsDerivedFromContainerPath) {
  EXPECT_EQ(session_journal_path("/x/y/rec.cdcc"), "/x/y/rec.cdcc.cdcj");
}

}  // namespace
}  // namespace cdc::store
