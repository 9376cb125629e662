#include "runtime/storage.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "compress/crc32.h"
#include "support/binary.h"

namespace cdc::runtime {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> list) {
  return list;
}

template <typename Store>
void exercise_basic(Store& store) {
  const StreamKey a{0, 1};
  const StreamKey b{3, 2};
  store.append(a, bytes({1, 2, 3}));
  store.append(a, bytes({4}));
  store.append(b, bytes({9, 9}));

  EXPECT_EQ(store.total_bytes(), 6u);
  EXPECT_EQ(store.rank_bytes(0), 4u);
  EXPECT_EQ(store.rank_bytes(3), 2u);
  EXPECT_EQ(store.rank_bytes(7), 0u);
  EXPECT_EQ(store.keys().size(), 2u);
}

TEST(MemoryStore, AppendReadBack) {
  MemoryStore store;
  exercise_basic(store);
  EXPECT_EQ(store.read(StreamKey{0, 1}), bytes({1, 2, 3, 4}));
  EXPECT_EQ(store.read(StreamKey{3, 2}), bytes({9, 9}));
  EXPECT_TRUE(store.read(StreamKey{5, 5}).empty());
}

TEST(CountingStore, CountsWithoutStoring) {
  CountingStore store;
  exercise_basic(store);
}

TEST(MemoryStore, EmptyStoreTotals) {
  MemoryStore store;
  EXPECT_EQ(store.total_bytes(), 0u);
  EXPECT_TRUE(store.keys().empty());
}

TEST(MemoryStore, KeysAreSorted) {
  MemoryStore store;
  for (std::int32_t rank = 7; rank >= 0; --rank)
    store.append(StreamKey{rank, 0}, bytes({1}));
  const auto keys = store.keys();
  ASSERT_EQ(keys.size(), 8u);
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(keys[i].rank, static_cast<std::int32_t>(i));
}

// 8 producer threads appending to overlapping streams, then full
// CRC-verified readback. Each append is a self-delimiting record
// [thread u8 | len u8 | payload | crc32(payload)]; appends are atomic per
// stream, so the concatenation must parse back into exactly the records
// written, every CRC intact.
TEST(MemoryStore, ConcurrentProducersStressWithCrcReadback) {
  constexpr int kThreads = 8;
  constexpr int kAppendsPerThread = 400;
  constexpr std::uint32_t kStreams = 24;

  MemoryStore store;
  {
    std::vector<std::jthread> producers;
    for (int t = 0; t < kThreads; ++t) {
      producers.emplace_back([&store, t] {
        for (int i = 0; i < kAppendsPerThread; ++i) {
          // All threads hammer the same small key set.
          const StreamKey key{static_cast<std::int32_t>((t + i) % 3),
                              static_cast<std::uint32_t>(i) % (kStreams / 3)};
          std::vector<std::uint8_t> payload(
              1 + static_cast<std::size_t>((t * 37 + i) % 23));
          for (std::size_t b = 0; b < payload.size(); ++b)
            payload[b] = static_cast<std::uint8_t>(t * 31 + i + b);
          support::ByteWriter record;
          record.u8(static_cast<std::uint8_t>(t));
          record.u8(static_cast<std::uint8_t>(payload.size()));
          record.bytes(payload);
          record.u32(compress::crc32(payload));
          store.append(key, record.view());
        }
      });
    }
  }

  int records = 0;
  for (const StreamKey& key : store.keys()) {
    const auto stream = store.read(key);
    support::ByteReader in(stream);
    while (!in.exhausted()) {
      const std::uint8_t thread_id = in.u8();
      EXPECT_LT(thread_id, kThreads);
      const std::uint8_t len = in.u8();
      std::span<const std::uint8_t> payload;
      ASSERT_TRUE(in.try_bytes(len, payload));
      EXPECT_EQ(in.u32(), compress::crc32(payload));  // no torn appends
      ++records;
    }
  }
  EXPECT_EQ(records, kThreads * kAppendsPerThread);
}

}  // namespace
}  // namespace cdc::runtime
