// Timing decorators for the traced run. Each wraps one layer's public
// interface, records a span around every call into it, and forwards the
// call unchanged — so a traced run executes the same schedule and writes
// the same container bytes as an untraced one (rrbench checks this).
//   TracedHooks — minimpi::ToolHooks around a Recorder or Replayer;
//   TracedSink  — tool::FrameSink around an InlineFrameSink;
//   TracedStore — runtime::RecordStore around a store::ContainerStore.
#pragma once

#include <span>
#include <vector>

#include "minimpi/hooks.h"
#include "runtime/storage.h"
#include "tool/frame_sink.h"
#include "trace.h"

namespace rrbench {

/// Span and count names of one tool side (record or replay).
struct HookNames {
  trace::Span on_send;
  trace::Span select;
  trace::Span unmatched_test;
  trace::Span deliver;
  trace::Span deliver_flush;  ///< on_deliver calls with a nested sink span
  trace::Count delivered;
  trace::Count blocked;  ///< select calls answered kBlock
};

inline constexpr HookNames kRecordHooks{
    trace::Span::kRecordOnSend, trace::Span::kRecordSelect,
    trace::Span::kRecordUnmatchedTest, trace::Span::kRecordDeliverBuffer,
    trace::Span::kRecordDeliverFlush, trace::Count::kRecordDelivered,
    trace::Count::kRecordBlocked};

inline constexpr HookNames kReplayHooks{
    trace::Span::kReplayOnSend, trace::Span::kReplaySelect,
    trace::Span::kReplayUnmatchedTest, trace::Span::kReplayDeliver,
    trace::Span::kReplayDeliver, trace::Count::kReplayDelivered,
    trace::Count::kReplayBlocked};

class TracedHooks final : public cdc::minimpi::ToolHooks {
 public:
  TracedHooks(cdc::minimpi::ToolHooks& inner, const HookNames& names)
      : inner_(inner), names_(names) {}

  std::uint64_t on_send(cdc::minimpi::Rank sender) override {
    trace::ScopedSpan span(names_.on_send);
    return inner_.on_send(sender);
  }

  cdc::minimpi::SelectResult select(
      cdc::minimpi::Rank rank, cdc::minimpi::CallsiteId callsite,
      cdc::minimpi::MFKind kind,
      std::span<const cdc::minimpi::Candidate> candidates,
      std::size_t total_requests, bool blocking) override {
    trace::ScopedSpan span(names_.select);
    cdc::minimpi::SelectResult result = inner_.select(
        rank, callsite, kind, candidates, total_requests, blocking);
    if (result.action == cdc::minimpi::SelectResult::Action::kBlock)
      trace::add(names_.blocked, 1);
    return result;
  }

  void on_unmatched_test(cdc::minimpi::Rank rank,
                         cdc::minimpi::CallsiteId callsite) override {
    trace::ScopedSpan span(names_.unmatched_test);
    inner_.on_unmatched_test(rank, callsite);
  }

  void on_deliver(cdc::minimpi::Rank rank, cdc::minimpi::CallsiteId callsite,
                  cdc::minimpi::MFKind kind,
                  std::span<const cdc::minimpi::Completion> events) override {
    trace::ScopedSpan span(names_.deliver, names_.deliver_flush);
    trace::add(names_.delivered, events.size());
    inner_.on_deliver(rank, callsite, kind, events);
  }

  void on_deadlock() override { inner_.on_deadlock(); }
  bool on_stall() override { return inner_.on_stall(); }
  void on_fault(cdc::minimpi::FaultKind kind,
                cdc::minimpi::Rank rank) override {
    inner_.on_fault(kind, rank);
  }
  void on_parallel_start(int workers) override {
    inner_.on_parallel_start(workers);
  }
  void on_window(double horizon) override {
    trace::ScopedSpan span(trace::Span::kRecordOnWindow);
    inner_.on_window(horizon);
  }

 private:
  cdc::minimpi::ToolHooks& inner_;
  HookNames names_;
};

class TracedSink final : public cdc::tool::FrameSink {
 public:
  explicit TracedSink(cdc::tool::FrameSink& inner) : inner_(inner) {}

  void submit(const cdc::runtime::StreamKey& key,
              cdc::tool::FrameJob job) override {
    trace::add(trace::Count::kDeflateInBytes, job.payload.size());
    trace::ScopedSpan span(trace::Span::kSinkSubmit);
    inner_.submit(key, std::move(job));
  }

 private:
  cdc::tool::FrameSink& inner_;
};

class TracedStore final : public cdc::runtime::RecordStore {
 public:
  explicit TracedStore(cdc::runtime::RecordStore& inner) : inner_(inner) {}

  void append(const cdc::runtime::StreamKey& key,
              std::span<const std::uint8_t> bytes) override {
    trace::add(trace::Count::kAppendBytes, bytes.size());
    trace::ScopedSpan span(trace::Span::kStoreAppend);
    inner_.append(key, bytes);
  }
  void append_epoch(const cdc::runtime::StreamKey& key,
                    std::span<const std::uint8_t> bytes,
                    const cdc::runtime::EpochMeta& meta) override {
    trace::add(trace::Count::kAppendBytes, bytes.size());
    trace::ScopedSpan span(trace::Span::kStoreAppend);
    inner_.append_epoch(key, bytes, meta);
  }
  [[nodiscard]] std::vector<std::uint8_t> read(
      const cdc::runtime::StreamKey& key) const override {
    trace::ScopedSpan span(trace::Span::kStoreRead);
    return inner_.read(key);
  }
  [[nodiscard]] std::vector<std::uint8_t> read_prefix(
      const cdc::runtime::StreamKey& key,
      std::uint64_t epoch_hi) const override {
    trace::ScopedSpan span(trace::Span::kStoreRead);
    return inner_.read_prefix(key, epoch_hi);
  }
  [[nodiscard]] std::vector<cdc::runtime::StreamKey> keys() const override {
    return inner_.keys();
  }
  [[nodiscard]] std::uint64_t total_bytes() const override {
    return inner_.total_bytes();
  }
  [[nodiscard]] std::uint64_t rank_bytes(
      cdc::minimpi::Rank rank) const override {
    return inner_.rank_bytes(rank);
  }
  void sync() override {
    trace::ScopedSpan span(trace::Span::kStoreSync);
    inner_.sync();
  }

 private:
  cdc::runtime::RecordStore& inner_;
};

}  // namespace rrbench
