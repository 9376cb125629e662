// Recorder crash points, modelled at the storage seam.
//
// A real recorder dies mid-run with its node-local record only partially
// persisted. The simulator is single-process, so the crash is modelled
// where it actually bites: CrashingStore wraps any record sink and
// forwards what a live recorder writes — appends with their epoch
// metadata, checkpoint syncs — until a budget of appends is spent. That
// is the crash: everything after it never reaches storage, while the
// recorder itself keeps running the application to completion (the
// surviving ranks' behaviour is irrelevant to what was persisted). Pairing
// this with store::ContainerStore::abandon() leaves an unsealed container
// exactly like a killed process would, ready for the repack/salvage path.
#pragma once

#include <cstdint>

#include "runtime/storage.h"

namespace cdc::tool {

class CrashingStore final : public runtime::RecordSink {
 public:
  /// Appends and syncs are forwarded until `appends_before_crash` appends
  /// have succeeded; every later one is dropped (the crash).
  CrashingStore(runtime::RecordSink* inner,
                std::uint64_t appends_before_crash)
      : inner_(inner), budget_(appends_before_crash) {}

  void append(const runtime::StreamKey& key,
              std::span<const std::uint8_t> bytes) override {
    if (crashed()) return;
    ++appends_;
    inner_->append(key, bytes);
  }
  void append_epoch(const runtime::StreamKey& key,
                    std::span<const std::uint8_t> bytes,
                    const runtime::EpochMeta& meta) override {
    if (crashed()) return;
    ++appends_;
    inner_->append_epoch(key, bytes, meta);
  }
  void sync() override {
    if (!crashed()) inner_->sync();
  }

  [[nodiscard]] std::uint64_t appends_forwarded() const noexcept {
    return appends_;
  }

 private:
  [[nodiscard]] bool crashed() const noexcept { return appends_ >= budget_; }

  runtime::RecordSink* inner_;
  std::uint64_t budget_;
  std::uint64_t appends_ = 0;
};

}  // namespace cdc::tool
