#include "tool/frame_sink.h"

#include "obs/metrics.h"
#include "support/check.h"

namespace cdc::tool {

namespace {

/// Counts a scratch-buffer reuse under store.pool.*, the pipeline
/// report's buffer-recycling counters (record_inspector --stats).
void count_scratch_reuse(const std::vector<std::uint8_t>& scratch) {
  static obs::Counter& pool_hits = obs::counter("store.pool.hits");
  static obs::Counter& pool_misses = obs::counter("store.pool.misses");
  static obs::Counter& pool_recycled =
      obs::counter("store.pool.recycled_bytes");
  if (scratch.capacity() > 0) {
    pool_hits.add(1);
    pool_recycled.add(scratch.capacity());
  } else {
    pool_misses.add(1);
  }
}

}  // namespace

InlineFrameSink::InlineFrameSink(runtime::RecordSink* store)
    : store_(store) {
  CDC_CHECK(store != nullptr);
}

void InlineFrameSink::submit(const runtime::StreamKey& key, FrameJob job) {
  count_scratch_reuse(scratch_);
  std::vector<std::uint8_t> encoded =
      encode_frame_into(job, std::move(scratch_));
  if (job.epoch.has_value())
    store_->append_epoch(key, encoded, *job.epoch);
  else
    store_->append(key, encoded);
  scratch_ = std::move(encoded);  // the store copied; keep the capacity
}

}  // namespace cdc::tool
