#include "runtime/storage.h"

namespace cdc::runtime {

// --- MemoryStore ------------------------------------------------------------

void MemoryStore::append(const StreamKey& key,
                         std::span<const std::uint8_t> bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& stream = streams_[key];
  stream.insert(stream.end(), bytes.begin(), bytes.end());
}

std::vector<std::uint8_t> MemoryStore::read(const StreamKey& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = streams_.find(key);
  return it != streams_.end() ? it->second : std::vector<std::uint8_t>{};
}

std::vector<StreamKey> MemoryStore::keys() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<StreamKey> out;
  out.reserve(streams_.size());
  for (const auto& [key, stream] : streams_) out.push_back(key);
  return out;
}

std::uint64_t MemoryStore::total_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [key, stream] : streams_) total += stream.size();
  return total;
}

std::uint64_t MemoryStore::rank_bytes(minimpi::Rank rank) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [key, stream] : streams_)
    if (key.rank == rank) total += stream.size();
  return total;
}

// --- CountingStore ----------------------------------------------------------

void CountingStore::append(const StreamKey& key,
                           std::span<const std::uint8_t> bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  sizes_[key] += bytes.size();
}

std::vector<StreamKey> CountingStore::keys() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<StreamKey> out;
  out.reserve(sizes_.size());
  for (const auto& [key, size] : sizes_) out.push_back(key);
  return out;
}

std::uint64_t CountingStore::total_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [key, size] : sizes_) total += size;
  return total;
}

std::uint64_t CountingStore::rank_bytes(minimpi::Rank rank) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [key, size] : sizes_)
    if (key.rank == rank) total += size;
  return total;
}

}  // namespace cdc::runtime
