#include "tool/stream_recorder.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "record/baseline.h"
#include "record/chunk.h"
#include "record/epoch.h"
#include "tool/frame.h"

namespace cdc::tool {

namespace {

// Raw footprint of one receive event before any codec runs: the five
// per-row values of the Figure 4 baseline format, 8 bytes each.
constexpr std::uint64_t kRawEventBytes = 5 * 8;

/// Handle bundle for one codec stage's counters; resolved once per stage
/// (registration takes a lock, recording does not).
struct StageMetrics {
  obs::Counter& calls;
  obs::Counter& ns;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Counter& values;

  explicit StageMetrics(const std::string& prefix)
      : calls(obs::counter(prefix + ".calls")),
        ns(obs::counter(prefix + ".ns")),
        bytes_in(obs::counter(prefix + ".bytes_in")),
        bytes_out(obs::counter(prefix + ".bytes_out")),
        values(obs::counter(prefix + ".values")) {}

  void add(std::uint64_t t_ns, std::uint64_t in, std::uint64_t out,
           std::uint64_t vals = 0) noexcept {
    calls.add(1);
    ns.add(t_ns);
    bytes_in.add(in);
    bytes_out.add(out);
    if (vals > 0) values.add(vals);
  }
};

StageMetrics& stage_re() {
  static StageMetrics s("record.stage.re");
  return s;
}
StageMetrics& stage_pe() {
  static StageMetrics s("record.stage.pe");
  return s;
}
StageMetrics& stage_lp() {
  static StageMetrics s("record.stage.lp");
  return s;
}

}  // namespace

void StreamRecorder::flush(FrameSink& sink, std::size_t max_matched,
                           bool force_all) {
  static obs::Counter& obs_chunks = obs::counter("record.chunks");
  static obs::Counter& obs_matched = obs::counter("record.events.matched");
  static obs::Counter& obs_unmatched =
      obs::counter("record.events.unmatched");
  static obs::Histogram& obs_flush_events =
      obs::histogram("record.epoch.flush_events");
  static obs::Histogram& obs_flush_ns =
      obs::histogram("record.epoch.flush_ns");
  const obs::Stopwatch flush_timer;
  obs::TraceSpan flush_span("record.flush", key_.rank, "callsite",
                            key_.callsite);
  std::uint64_t flushed_matched = 0;

  // Epoch enforcement: only cut where the per-sender clock frontier is
  // clean; CDC variants defer otherwise. The baseline codecs have no epoch
  // machinery (a traditional tool flushes blindly), but cutting them at
  // the same points keeps the Figure 13 size comparison apples-to-apples.
  record::PendingMins pending_min;
  for (const auto& [sender, index] : by_sender_) {
    const SenderPending& p = pending_[index];
    if (p.head < p.clocks.size())
      pending_min.emplace_hint(pending_min.end(), sender, p.clocks[p.head]);
  }

  while (true) {
    std::size_t cut =
        record::find_clean_cut(buffer_, pending_min, max_matched);
    std::size_t cut_matched = cut;
    if (force_all) {
      // Take every buffered event, matched or not.
      cut_matched = 0;
      for (const auto& e : buffer_) cut_matched += e.flag;
      cut = cut_matched;
      if (buffer_.empty()) break;
    } else if (cut == 0) {
      break;  // no clean cut yet — keep buffering
    }

    std::vector<record::ReceiveEvent> events =
        record::take_cut(buffer_, cut_matched);
    buffered_matched_ -= cut_matched;
    if (force_all && !buffer_.empty()) {
      // take_cut leaves trailing unmatched events; fold them in.
      events.insert(events.end(), buffer_.begin(), buffer_.end());
      buffer_.clear();
    }
    if (events.empty()) break;

    obs_matched.add(cut_matched);
    obs_unmatched.add(events.size() - cut_matched);
    obs_flush_events.record(cut_matched);
    flushed_matched += cut_matched;
    const std::uint64_t raw_bytes = events.size() * kRawEventBytes;

    // Build the raw chunk payload; the sink decides where and on which
    // thread the entropy stage runs.
    FrameJob job;
    job.codec = static_cast<std::uint8_t>(options_.codec);
    job.level = options_.level;
    job.epoch = runtime::EpochMeta{cut_matched,
                                   events.size() - cut_matched};
    switch (options_.codec) {
      case RecordCodec::kBaselineRaw:
      case RecordCodec::kBaselineGzip: {
        const auto rows = record::to_rows(events);
        stats_.rows += rows.size();
        stats_.stored_values += 5 * rows.size();
        job.meta = rows.size();
        job.compress = options_.codec != RecordCodec::kBaselineRaw;
        job.payload = record::baseline_serialize(rows);
        break;
      }
      case RecordCodec::kCdcRe: {
        const obs::Stopwatch sw_re;
        const auto tables = record::build_tables(events);
        const std::uint64_t re_values = tables.value_count();
        stage_re().add(sw_re.ns(), raw_bytes, re_values * 8, re_values);
        stats_.stored_values += re_values;
        const obs::Stopwatch sw_lp;
        support::ByteWriter payload;
        record::write_tables_re(payload, tables);
        job.payload = std::move(payload).take();
        stage_lp().add(sw_lp.ns(), re_values * 8, job.payload.size(),
                       re_values);
        break;
      }
      case RecordCodec::kCdcFull: {
        const obs::Stopwatch sw_re;
        const auto tables = record::build_tables(events);
        const std::uint64_t re_values = tables.value_count();
        stage_re().add(sw_re.ns(), raw_bytes, re_values * 8, re_values);
        const obs::Stopwatch sw_pe;
        const auto chunk = record::encode_chunk(tables);
        const std::uint64_t pe_values = chunk.value_count();
        stage_pe().add(sw_pe.ns(), re_values * 8, pe_values * 8,
                       pe_values);
        stats_.moves += chunk.moves.size();
        stats_.stored_values += pe_values;
        const obs::Stopwatch sw_lp;
        support::ByteWriter payload;
        record::write_chunk(payload, chunk);
        job.payload = std::move(payload).take();
        stage_lp().add(sw_lp.ns(), pe_values * 8, job.payload.size(),
                       pe_values);
        break;
      }
    }
    sink.submit(key_, std::move(job));
    ++stats_.chunks;
    obs_chunks.add(1);

    if (force_all) break;
    if (buffered_matched_ < options_.chunk_target) break;
  }

  obs_flush_ns.record(flush_timer.ns());
  flush_span.set_arg(flushed_matched);
}

}  // namespace cdc::tool
