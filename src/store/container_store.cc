#include "store/container_store.h"

#include <cstdio>

#include "store/container_reader.h"
#include "support/check.h"

namespace cdc::store {

ContainerStore::ContainerStore(std::string path)
    : path_(std::move(path)),
      writer_(std::make_unique<ContainerWriter>(path_)) {}

ContainerStore::ContainerStore(std::string path, bool /*read_only*/)
    : path_(std::move(path)) {}

std::unique_ptr<ContainerStore> ContainerStore::open(const std::string& path) {
  std::string error;
  auto reader = ContainerReader::open(path, &error);
  if (reader == nullptr)
    std::fprintf(stderr, "store: %s\n", error.c_str());
  CDC_CHECK_MSG(reader != nullptr, "cannot open record container");
  CDC_CHECK_MSG(reader->index_ok(),
                "container index corrupt — run verify/repack first");
  auto store = std::unique_ptr<ContainerStore>(
      new ContainerStore(path, /*read_only=*/true));
  for (const runtime::StreamKey& key : reader->keys())
    store->memory_.append(key, reader->read_stream(key));
  // Keep the reader: windowed replay seeks through its epoch index.
  store->reader_ = std::move(reader);
  return store;
}

std::unique_ptr<ContainerStore> ContainerStore::resume(
    const std::string& path, std::uint64_t durable_bytes,
    std::span<const std::optional<runtime::EpochMeta>> metas,
    std::string* error) {
  auto writer = ContainerWriter::resume(path, durable_bytes, metas, error);
  if (writer == nullptr) return nullptr;
  auto store = std::unique_ptr<ContainerStore>(
      new ContainerStore(path, /*read_only=*/true));
  store->writer_ = std::move(writer);
  // The file now holds exactly the durable prefix; a fresh scan yields the
  // surviving frames in file order, which is per-stream sequence order.
  auto reader = ContainerReader::open(path, error);
  if (reader == nullptr) return nullptr;
  for (const ContainerReader::GoodFrame& frame : reader->scan_good_frames())
    store->memory_.append(frame.key, frame.payload);
  return store;
}

void ContainerStore::append(const runtime::StreamKey& key,
                            std::span<const std::uint8_t> bytes) {
  CDC_CHECK_MSG(writer_ != nullptr,
                "append to a container store opened read-only");
  memory_.append(key, bytes);
  writer_->append_frame(key, bytes);
}

void ContainerStore::append_epoch(const runtime::StreamKey& key,
                                  std::span<const std::uint8_t> bytes,
                                  const runtime::EpochMeta& meta) {
  CDC_CHECK_MSG(writer_ != nullptr,
                "append to a container store opened read-only");
  memory_.append(key, bytes);
  writer_->append_frame(key, bytes, meta);
}

std::vector<std::uint8_t> ContainerStore::read(
    const runtime::StreamKey& key) const {
  return memory_.read(key);
}

std::vector<std::uint8_t> ContainerStore::read_prefix(
    const runtime::StreamKey& key, std::uint64_t epoch_hi) const {
  if (reader_ == nullptr) return read(key);
  return reader_->read_stream_window(key, 0, epoch_hi).bytes;
}

std::vector<runtime::StreamKey> ContainerStore::keys() const {
  return memory_.keys();
}

std::uint64_t ContainerStore::total_bytes() const {
  return memory_.total_bytes();
}

std::uint64_t ContainerStore::rank_bytes(minimpi::Rank rank) const {
  return memory_.rank_bytes(rank);
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
