// Where sealed chunks go: the seam between chunk building (StreamRecorder)
// and frame encoding + storage.
//
// There is one frame path. InlineFrameSink encodes (DEFLATE) on the
// calling thread and appends to its runtime::RecordSink at once — the
// recorder's flush, a cdc_served session worker and a local rebuild all
// produce the same bytes. Storage policy lives in the record sink stack
// beneath the frame sink, not in it: retries and quarantine come from a
// store::RetryingStore passed as the store, quotas from a
// store::QuotaStore. The FrameSink interface is a seam so callers can
// wrap the inline sink (capture, tracing) without touching the recorder.
#pragma once

#include <vector>

#include "runtime/storage.h"
#include "tool/frame.h"

namespace cdc::tool {

class FrameSink {
 public:
  virtual ~FrameSink() = default;

  /// Encodes and appends one frame to `key`'s stream. Per-key submission
  /// order is preserved in the stored stream.
  virtual void submit(const runtime::StreamKey& key, FrameJob job) = 0;
};

/// Encodes on the calling thread, appends immediately. Keeps one output
/// buffer and recycles its capacity across submits (sinks are used from
/// a single flushing thread), so steady-state encoding is allocation-free.
/// An append that throws (runtime::IoError) propagates to the caller with
/// the frame unwritten.
class InlineFrameSink final : public FrameSink {
 public:
  explicit InlineFrameSink(runtime::RecordSink* store);
  void submit(const runtime::StreamKey& key, FrameJob job) override;

 private:
  runtime::RecordSink* store_;
  std::vector<std::uint8_t> scratch_;  ///< recycled frame-output buffer
};

}  // namespace cdc::tool
