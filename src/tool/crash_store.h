// Recorder crash points, modelled at the storage seam.
//
// A real recorder dies mid-run with its node-local record only partially
// persisted. The simulator is single-process, so the crash is modelled
// where it actually bites: CrashingStore wraps any RecordStore and starts
// silently dropping appends once a budget of successful appends is spent —
// everything after the "crash" never reaches storage, while the recorder
// itself keeps running the application to completion (the surviving ranks'
// behaviour is irrelevant to what was persisted). Pairing this with
// store::ContainerStore::abandon() leaves an unsealed container exactly
// like a killed process would, ready for the repack/salvage path.
#pragma once

#include <cstdint>

#include "runtime/storage.h"

namespace cdc::tool {

class CrashingStore final : public runtime::RecordStore {
 public:
  /// Appends are forwarded until `appends_before_crash` have succeeded;
  /// every later append is dropped (the crash).
  CrashingStore(runtime::RecordStore* inner,
                std::uint64_t appends_before_crash)
      : inner_(inner), budget_(appends_before_crash) {}

  void append(const runtime::StreamKey& key,
              std::span<const std::uint8_t> bytes) override {
    if (appends_ >= budget_) return;
    ++appends_;
    inner_->append(key, bytes);
  }

  [[nodiscard]] std::vector<std::uint8_t> read(
      const runtime::StreamKey& key) const override {
    return inner_->read(key);
  }
  [[nodiscard]] std::vector<runtime::StreamKey> keys() const override {
    return inner_->keys();
  }
  [[nodiscard]] std::uint64_t total_bytes() const override {
    return inner_->total_bytes();
  }
  [[nodiscard]] std::uint64_t rank_bytes(
      minimpi::Rank rank) const override {
    return inner_->rank_bytes(rank);
  }

  [[nodiscard]] std::uint64_t appends_forwarded() const noexcept {
    return appends_;
  }

 private:
  runtime::RecordStore* inner_;
  std::uint64_t budget_;
  std::uint64_t appends_ = 0;
};

}  // namespace cdc::tool
