#include "obs/report.h"

#include <cinttypes>
#include <string_view>

#include "obs/json.h"
#include "obs/stats.h"

namespace cdc::obs {

namespace {

double ratio(std::uint64_t num, std::uint64_t den, double scale = 1.0) {
  if (den == 0) return 0.0;
  return static_cast<double>(num) * scale / static_cast<double>(den);
}

}  // namespace

double PipelineReport::deflate_mb_per_s() const {
  // bytes per ns × 1e3 = MB/s
  return ratio(metrics.counter_or("record.stage.deflate.bytes_in"),
               metrics.counter_or("record.stage.deflate.ns"), 1e3);
}

double PipelineReport::inflate_mb_per_s() const {
  return ratio(metrics.counter_or("record.stage.inflate.bytes_out"),
               metrics.counter_or("record.stage.inflate.ns"), 1e3);
}

double PipelineReport::pool_hit_rate() const {
  const std::uint64_t hits = metrics.counter_or("store.pool.hits");
  return ratio(hits, hits + metrics.counter_or("store.pool.misses"));
}

double PipelineReport::corpus_dedup_ratio() const {
  return ratio(metrics.counter_or("corpus.raw_bytes"),
               metrics.counter_or("corpus.stored_bytes"));
}

bool PipelineReport::reconcile() {
  reconciled = true;
  reconcile_note.clear();
  char note[160];

  const std::uint64_t frame_bytes_out =
      metrics.counter_or("record.frame.bytes_out");
  const std::uint64_t chunks = metrics.counter_or("record.chunks");
  const std::uint64_t deflate_bytes_out =
      metrics.counter_or("record.stage.deflate.bytes_out");
  const bool have_live = frame_bytes_out > 0;
  const bool have_container = container.frames > 0;
  if (have_live && have_container) {
    if (frame_bytes_out != container.stored_bytes) {
      reconciled = false;
      std::snprintf(note, sizeof note,
                    "encoder emitted %" PRIu64
                    " framed bytes but the container holds %" PRIu64,
                    frame_bytes_out, container.stored_bytes);
      reconcile_note = note;
    }
    if (reconciled && chunks != container.frames) {
      reconciled = false;
      std::snprintf(note, sizeof note,
                    "encoder sealed %" PRIu64
                    " chunks but the container holds %" PRIu64 " frames",
                    chunks, container.frames);
      reconcile_note = note;
    }
  }
  // Deflate accounting must agree with itself regardless of source.
  if (reconciled && have_live && deflate_bytes_out > frame_bytes_out) {
    reconciled = false;
    std::snprintf(note, sizeof note,
                  "deflate output %" PRIu64
                  " exceeds total framed bytes %" PRIu64,
                  deflate_bytes_out, frame_bytes_out);
    reconcile_note = note;
  }
  if (reconciled && have_container &&
      container.stored_bytes > container.file_bytes &&
      container.file_bytes > 0) {
    reconciled = false;
    std::snprintf(note, sizeof note,
                  "stored frame bytes %" PRIu64
                  " exceed the container file size %" PRIu64,
                  container.stored_bytes, container.file_bytes);
    reconcile_note = note;
  }
  if (reconciled)
    reconcile_note = have_live && have_container
                         ? "encoder and container byte totals match"
                         : "single-source report; internal totals consistent";
  return reconciled;
}

std::string PipelineReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("report", "cdc_pipeline");
  w.key("metrics");
  metrics.write_json(w);

  w.key("derived").begin_object();
  w.field("deflate_mb_per_s", deflate_mb_per_s());
  w.field("inflate_mb_per_s", inflate_mb_per_s());
  w.field("pool_hit_rate", pool_hit_rate());
  w.field("corpus_dedup_ratio", corpus_dedup_ratio());
  w.end_object();

  w.key("container").begin_object();
  w.field("file_bytes", container.file_bytes);
  w.field("frames", container.frames);
  w.field("stored_bytes", container.stored_bytes);
  w.field("raw_bytes", container.raw_bytes);
  w.field("chunk_events", container.chunk_events);
  w.field("chunk_values", container.chunk_values);
  w.field("sealed", container.sealed);
  w.key("codec_frames").begin_object();
  for (const auto& [codec, frames] : container.codec_frames)
    w.field(codec, frames);
  w.end_object();
  w.end_object();

  w.key("reconciliation").begin_object();
  w.field("ok", reconciled);
  w.field("note", reconcile_note);
  w.end_object();

  w.end_object();
  return std::move(w).take();
}

void PipelineReport::print(std::FILE* out) const {
  const auto bytes = [](std::uint64_t b) {
    return format_bytes(static_cast<double>(b));
  };
  std::fprintf(out, "== CDC pipeline report ==\n");
  std::fprintf(out, "metrics   : %zu counters, %zu gauges, %zu histograms\n",
               metrics.counters.size(), metrics.gauges.size(),
               metrics.histograms.size());
  // One line per metric in name order, whatever its kind, so each layer's
  // metrics stay together.
  std::multimap<std::string_view, std::string> lines;
  for (const CounterValue& c : metrics.counters)
    lines.emplace(c.name, std::to_string(c.value));
  for (const GaugeValue& g : metrics.gauges)
    lines.emplace(g.name, std::to_string(g.value));
  for (const HistogramValue& h : metrics.histograms) {
    char dist[160];
    std::snprintf(dist, sizeof dist,
                  "count %" PRIu64 " min %" PRIu64 " max %" PRIu64
                  " mean %.1f p50 %.0f p99 %.0f",
                  h.count, h.min, h.max, h.mean(), h.quantile(0.50),
                  h.quantile(0.99));
    lines.emplace(h.name, dist);
  }
  for (const auto& [name, value] : lines)
    std::fprintf(out, "  %-40.*s %s\n", static_cast<int>(name.size()),
                 name.data(), value.c_str());

  std::fprintf(out,
               "derived   : deflate %.1f MB/s, inflate %.1f MB/s, pool hit "
               "rate %.1f%%, corpus dedup %.2fx\n",
               deflate_mb_per_s(), inflate_mb_per_s(),
               100.0 * pool_hit_rate(), corpus_dedup_ratio());
  if (container.frames > 0) {
    std::fprintf(out,
                 "container : %" PRIu64 " frames, %s stored (%s raw "
                 "chunks), file %s, %ssealed\n",
                 container.frames, bytes(container.stored_bytes).c_str(),
                 bytes(container.raw_bytes).c_str(),
                 bytes(container.file_bytes).c_str(),
                 container.sealed ? "" : "NOT ");
    for (const auto& [codec, frames] : container.codec_frames)
      std::fprintf(out, "  codec %-16s %8" PRIu64 " frames\n",
                   codec.c_str(), frames);
    if (container.chunk_events > 0)
      std::fprintf(out,
                   "  CDC chunks: %" PRIu64 " matched events, %" PRIu64
                   " stored values (%.3f values/event)\n",
                   container.chunk_events, container.chunk_values,
                   ratio(container.chunk_values, container.chunk_events));
  }
  std::fprintf(out, "reconcile : %s — %s\n", reconciled ? "OK" : "FAILED",
               reconcile_note.c_str());
}

}  // namespace cdc::obs
