// Byte-quota enforcement at the record sink seam.
//
// The service layer (src/net/) sells bounded storage per tenant; the
// enforcement point is a sink in front of whatever store a tenant's
// session writes into, so the quota holds for whatever the frame sink
// appends through it. A quota trip throws QuotaExceeded (a distinct
// type, not IoError: retrying a quota breach is never correct) *before*
// committing the append, leaving the underlying container consistent and
// sealable.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "runtime/storage.h"

namespace cdc::store {

/// Thrown by QuotaStore::append when the budget would be exceeded. The
/// failed append committed nothing; the store below remains consistent.
class QuotaExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Sink charging every appended byte against a fixed budget. Accounting
/// is on the *raw frame bytes appended* (what actually lands in the
/// container), checked-and-charged atomically so concurrent appenders
/// cannot jointly overshoot.
class QuotaStore final : public runtime::RecordSink {
 public:
  QuotaStore(runtime::RecordSink* inner, std::uint64_t max_bytes)
      : inner_(inner), max_bytes_(max_bytes) {}

  void append(const runtime::StreamKey& key,
              std::span<const std::uint8_t> bytes) override {
    charge(bytes.size());
    inner_->append(key, bytes);
  }

  void append_epoch(const runtime::StreamKey& key,
                    std::span<const std::uint8_t> bytes,
                    const runtime::EpochMeta& meta) override {
    charge(bytes.size());
    inner_->append_epoch(key, bytes, meta);
  }

  void sync() override { inner_->sync(); }

 private:
  void charge(std::uint64_t n) {
    std::uint64_t used = used_.load(std::memory_order_relaxed);
    while (true) {
      if (used + n > max_bytes_)
        throw QuotaExceeded("quota exceeded: " + std::to_string(used + n) +
                            " > " + std::to_string(max_bytes_) + " bytes");
      if (used_.compare_exchange_weak(used, used + n,
                                      std::memory_order_relaxed))
        return;
    }
  }

  runtime::RecordSink* inner_;
  const std::uint64_t max_bytes_;
  std::atomic<std::uint64_t> used_{0};
};

}  // namespace cdc::store
