// Content-addressed chunk table: intern/dedup semantics, refcounts,
// ordinal stability, and the byte-compare guard behind the strong hash.
#include <gtest/gtest.h>

#include <vector>

#include "corpus/chunk_store.h"
#include "support/rng.h"

namespace cdc::corpus {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.bounded(256));
  return bytes;
}

TEST(ChunkId, SameContentSameIdDifferentContentDifferentId) {
  const auto a = random_bytes(1000, 1);
  auto b = a;
  EXPECT_EQ(chunk_id(a), chunk_id(b));
  b[500] ^= 1;
  EXPECT_NE(chunk_id(a), chunk_id(b));
  // Length participates: a prefix must not collide with the whole.
  EXPECT_NE(chunk_id(a), chunk_id(std::span(a).first(999)));
}

TEST(ChunkStore, InternDeduplicatesAndCountsReferences) {
  ChunkStore store;
  const auto a = random_bytes(512, 2);
  const auto b = random_bytes(512, 3);

  const auto first = store.intern(a);
  EXPECT_TRUE(first.inserted);
  const auto again = store.intern(a);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.ordinal, first.ordinal);
  const auto other = store.intern(b);
  EXPECT_TRUE(other.inserted);
  EXPECT_NE(other.ordinal, first.ordinal);

  EXPECT_EQ(store.count(), 2u);
  EXPECT_EQ(store.ref_count(first.ordinal), 2u);  // one per intern call
  EXPECT_EQ(store.ref_count(other.ordinal), 1u);
  EXPECT_EQ(store.stored_bytes(), 1024u);       // unique content only
  EXPECT_EQ(store.presented_bytes(), 1536u);    // all three calls

  const auto chunk = store.chunk(first.ordinal);
  EXPECT_TRUE(std::equal(chunk.begin(), chunk.end(), a.begin(), a.end()));
}

TEST(ChunkStore, OrdinalsAreDenseAndInternOrdered) {
  ChunkStore store;
  for (std::uint32_t i = 0; i < 16; ++i)
    EXPECT_EQ(store.intern(random_bytes(64 + i, 100 + i)).ordinal, i);
}

TEST(ChunkStore, PeekIsSideEffectFree) {
  ChunkStore store;
  const auto a = random_bytes(256, 4);
  EXPECT_FALSE(store.peek(a).has_value());
  EXPECT_EQ(store.count(), 0u);
  const auto interned = store.intern(a);
  const auto hit = store.peek(a);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, interned.ordinal);
  EXPECT_EQ(store.ref_count(interned.ordinal), 1u);  // peek added nothing
  EXPECT_EQ(store.presented_bytes(), a.size());
}

TEST(ChunkStore, AdoptRebuildsWithZeroRefsAndAddReferenceRestores) {
  // The container-load path: chunk frames are re-admitted refcount-free,
  // then manifests re-add their references.
  ChunkStore store;
  const auto a = random_bytes(300, 5);
  const std::uint32_t ordinal = store.adopt(a);
  EXPECT_EQ(store.ref_count(ordinal), 0u);
  store.add_reference(ordinal);
  store.add_reference(ordinal);
  EXPECT_EQ(store.ref_count(ordinal), 2u);
  // Interning adopted content is a hit, not a new chunk.
  EXPECT_FALSE(store.intern(a).inserted);
  EXPECT_EQ(store.count(), 1u);
}

TEST(ChunkStore, EmptyChunkIsAValidChunk) {
  ChunkStore store;
  const auto result = store.intern({});
  EXPECT_TRUE(result.inserted);
  EXPECT_TRUE(store.chunk(result.ordinal).empty());
  EXPECT_FALSE(store.intern({}).inserted);
}

}  // namespace
}  // namespace cdc::corpus
