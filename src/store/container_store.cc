#include "store/container_store.h"

#include <cstdio>

#include "store/container_reader.h"
#include "support/check.h"

namespace cdc::store {

ContainerStore::ContainerStore(std::string path)
    : writer_(std::make_unique<ContainerWriter>(std::move(path))) {}

std::unique_ptr<ContainerStore> ContainerStore::open(const std::string& path) {
  std::string error;
  auto reader = ContainerReader::open(path, &error);
  if (reader == nullptr)
    std::fprintf(stderr, "store: %s\n", error.c_str());
  CDC_CHECK_MSG(reader != nullptr, "cannot open record container");
  CDC_CHECK_MSG(reader->index_ok(),
                "container index corrupt — run verify/repack first");
  auto store = std::unique_ptr<ContainerStore>(new ContainerStore());
  // Checks every frame; the sizes are what read() returns, whatever the
  // index claims.
  store->opened_bytes_ = reader->stream_payload_bytes();
  store->reader_ = std::move(reader);
  return store;
}

std::unique_ptr<ContainerStore> ContainerStore::resume(
    const std::string& path, std::uint64_t durable_bytes,
    std::span<const std::optional<runtime::EpochMeta>> metas,
    std::string* error) {
  auto store = std::unique_ptr<ContainerStore>(new ContainerStore());
  store->writer_ = ContainerWriter::resume(path, durable_bytes, metas, error);
  return store->writer_ != nullptr ? std::move(store) : nullptr;
}

void ContainerStore::append(const runtime::StreamKey& key,
                            std::span<const std::uint8_t> bytes) {
  CDC_CHECK_MSG(writer_ != nullptr,
                "append to a container store opened read-only");
  writer_->append_frame(key, bytes);
}

void ContainerStore::append_epoch(const runtime::StreamKey& key,
                                  std::span<const std::uint8_t> bytes,
                                  const runtime::EpochMeta& meta) {
  CDC_CHECK_MSG(writer_ != nullptr,
                "append to a container store opened read-only");
  writer_->append_frame(key, bytes, meta);
}

const ContainerReader& ContainerStore::replay_reader() const {
  CDC_CHECK_MSG(reader_ != nullptr,
                "read from a recording container store — seal the "
                "container and open it to read");
  return *reader_;
}

std::vector<std::uint8_t> ContainerStore::read(
    const runtime::StreamKey& key) const {
  return replay_reader().read_stream(key);
}

std::vector<std::uint8_t> ContainerStore::read_prefix(
    const runtime::StreamKey& key, std::uint64_t epoch_hi) const {
  return replay_reader().read_stream_window(key, 0, epoch_hi).bytes;
}

std::map<runtime::StreamKey, std::uint64_t> ContainerStore::stream_bytes()
    const {
  return writer_ != nullptr ? writer_->stream_bytes() : opened_bytes_;
}

std::vector<runtime::StreamKey> ContainerStore::keys() const {
  std::vector<runtime::StreamKey> out;
  for (const auto& [key, bytes] : stream_bytes()) out.push_back(key);
  return out;
}

std::uint64_t ContainerStore::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [key, bytes] : stream_bytes()) total += bytes;
  return total;
}

std::uint64_t ContainerStore::rank_bytes(minimpi::Rank rank) const {
  std::uint64_t total = 0;
  for (const auto& [key, bytes] : stream_bytes())
    if (key.rank == rank) total += bytes;
  return total;
}

std::uint64_t ContainerStore::writer_file_bytes() const {
  return writer_ != nullptr ? writer_->stats().file_bytes : 0;
}

void ContainerStore::sync() {
  if (writer_ != nullptr) writer_->flush();
}

void ContainerStore::seal() {
  if (writer_ != nullptr) writer_->seal();
}

void ContainerStore::abandon() {
  CDC_CHECK_MSG(writer_ != nullptr,
                "abandon on a container store opened read-only");
  writer_->abandon();
}

}  // namespace cdc::store
