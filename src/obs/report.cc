#include "obs/report.h"

#include <cinttypes>
#include <cstdio>

#include "obs/json.h"
#include "obs/stats.h"

namespace cdc::obs {

DistReport DistReport::from(const HistogramValue& h) {
  DistReport d;
  d.count = h.count;
  d.min = h.min;
  d.max = h.max;
  d.mean = h.mean();
  d.p50 = h.quantile(0.50);
  d.p95 = h.quantile(0.95);
  d.p99 = h.quantile(0.99);
  return d;
}

namespace {

DistReport dist_or_empty(const MetricsSnapshot& s, std::string_view name) {
  const HistogramValue* h = s.find_histogram(name);
  return h != nullptr ? DistReport::from(*h) : DistReport{};
}

void fill_stage(const MetricsSnapshot& s, StageReport& stage,
                const std::string& prefix) {
  stage.calls = s.counter_or(prefix + ".calls");
  stage.ns = s.counter_or(prefix + ".ns");
  stage.bytes_in = s.counter_or(prefix + ".bytes_in");
  stage.bytes_out = s.counter_or(prefix + ".bytes_out");
  stage.values_out = s.counter_or(prefix + ".values");
}

void write_stage(JsonWriter& w, const StageReport& stage) {
  w.key(stage.name).begin_object();
  w.field("calls", stage.calls);
  w.field("ns", stage.ns);
  w.field("bytes_in", stage.bytes_in);
  w.field("bytes_out", stage.bytes_out);
  w.field("values_out", stage.values_out);
  w.end_object();
}

void write_dist(JsonWriter& w, std::string_view key, const DistReport& d) {
  w.key(key).begin_object();
  w.field("count", d.count);
  w.field("min", d.min);
  w.field("max", d.max);
  w.field("mean", d.mean);
  w.field("p50", d.p50);
  w.field("p95", d.p95);
  w.field("p99", d.p99);
  w.end_object();
}

}  // namespace

double PipelineReport::deflate_mb_per_s() const noexcept {
  if (stage_deflate.ns == 0) return 0.0;
  return static_cast<double>(stage_deflate.bytes_in) * 1e3 /
         static_cast<double>(stage_deflate.ns);
}

double PipelineReport::inflate_mb_per_s() const noexcept {
  if (stage_inflate.ns == 0) return 0.0;
  return static_cast<double>(stage_inflate.bytes_out) * 1e3 /
         static_cast<double>(stage_inflate.ns);
}

double PipelineReport::pool_hit_rate() const noexcept {
  const std::uint64_t total = pool_hits + pool_misses;
  if (total == 0) return 0.0;
  return static_cast<double>(pool_hits) / static_cast<double>(total);
}

double PipelineReport::corpus_dedup_ratio() const noexcept {
  if (corpus_stored_bytes == 0) return 0.0;
  return static_cast<double>(corpus_raw_bytes) /
         static_cast<double>(corpus_stored_bytes);
}

PipelineReport PipelineReport::from_snapshot(
    const MetricsSnapshot& s) {
  PipelineReport r;
  fill_stage(s, r.stage_re, "record.stage.re");
  fill_stage(s, r.stage_pe, "record.stage.pe");
  fill_stage(s, r.stage_lp, "record.stage.lp");
  fill_stage(s, r.stage_deflate, "record.stage.deflate");
  r.events_matched = s.counter_or("record.events.matched");
  r.events_unmatched = s.counter_or("record.events.unmatched");
  r.chunks = s.counter_or("record.chunks");
  r.frame_bytes_out = s.counter_or("record.frame.bytes_out");

  r.epoch_cuts = s.counter_or("record.epoch.cut_found");
  r.epoch_deferrals = s.counter_or("record.epoch.cut_deferred");
  r.epoch_flush_events = dist_or_empty(s, "record.epoch.flush_events");
  r.epoch_flush_ns = dist_or_empty(s, "record.epoch.flush_ns");

  r.pool_hits = s.counter_or("store.pool.hits");
  r.pool_misses = s.counter_or("store.pool.misses");
  r.pool_recycled_bytes = s.counter_or("store.pool.recycled_bytes");

  r.sim_messages = s.counter_or("sim.messages_sent");
  r.sim_events = s.counter_or("sim.scheduler_events");
  r.sim_mf_calls = s.counter_or("sim.mf_calls");
  r.sim_faults = s.counter_or("sim.faults");
  r.sim_unexpected_scanned = s.counter_or("sim.unexpected_scanned");
  r.sim_irecv_scanned = s.counter_or("sim.irecv_scanned");
  // One sample per run: the exact max is the largest run's value.
  if (const HistogramValue* vt = s.find_histogram("sim.virtual_time_us"))
    r.sim_virtual_seconds = static_cast<double>(vt->max) * 1e-6;
  if (const HistogramValue* qd = s.find_histogram("sim.max_queue_depth"))
    r.sim_max_queue_depth = qd->max;
  if (const HistogramValue* lr = s.find_histogram("sim.max_live_requests"))
    r.sim_max_live_requests = lr->max;
  if (const HistogramValue* mu = s.find_histogram("sim.max_unexpected"))
    r.sim_max_unexpected = mu->max;
  if (const HistogramValue* workers = s.find_histogram("sim.exec.workers")) {
    r.exec_runs = workers->count;
    r.exec_workers = workers->max;
  }
  r.exec_windows = s.counter_or("sim.exec.horizon_advances");
  r.exec_steals = s.counter_or("sim.exec.steals");
  r.exec_barrier_waits = s.counter_or("sim.exec.barrier_waits");
  r.exec_worker_events = dist_or_empty(s, "sim.exec.worker_events");

  r.writer_frames = s.counter_or("store.container.frames");
  r.writer_payload_bytes = s.counter_or("store.container.payload_bytes");

  fill_stage(s, r.stage_inflate, "record.stage.inflate");
  r.epoch_streams = s.counter_or("store.container.epoch_streams");
  r.epoch_fallbacks = s.counter_or("store.container.epoch_fallbacks");

  r.corpus_members = s.counter_or("corpus.members");
  r.corpus_streams = s.counter_or("corpus.streams");
  r.corpus_raw_bytes = s.counter_or("corpus.raw_bytes");
  r.corpus_stored_bytes = s.counter_or("corpus.stored_bytes");

  r.net_conns_accepted = s.counter_or("net.conns.accepted");
  r.net_conns_closed = s.counter_or("net.conns.closed");
  r.net_msgs_in = s.counter_or("net.msgs_in");
  r.net_msgs_out = s.counter_or("net.msgs_out");
  r.net_bytes_in = s.counter_or("net.bytes_in");
  r.net_bytes_out = s.counter_or("net.bytes_out");
  r.net_errors_sent = s.counter_or("net.errors_sent");
  r.net_parse_errors = s.counter_or("net.wire.parse_errors");
  r.net_suspensions = s.counter_or("net.backpressure.suspensions");
  r.net_sessions_opened = s.counter_or("net.sessions.opened");
  r.net_sessions_sealed = s.counter_or("net.sessions.sealed");
  r.net_sessions_aborted = s.counter_or("net.sessions.aborted");
  r.net_ingest_frames = s.counter_or("net.ingest.frames");
  r.net_ingest_raw_bytes = s.counter_or("net.ingest.raw_bytes");
  r.net_ingest_batches = s.counter_or("net.ingest.batches");
  r.net_replay_windows = s.counter_or("net.replay.windows");
  r.net_replay_window_bytes = s.counter_or("net.replay.window_bytes");
  r.net_resume_sessions = s.counter_or("net.server.resume.sessions");
  r.net_resume_recovered = s.counter_or("net.server.resume.recovered");
  r.net_resume_parked = s.counter_or("net.server.resume.parked");
  r.net_resume_deduped = s.counter_or("net.server.resume.deduped");
  r.net_resume_discarded = s.counter_or("net.server.resume.discarded");
  r.net_client_reconnects = s.counter_or("net.client.retry.reconnects");
  r.net_client_resumes = s.counter_or("net.client.retry.resumes");
  r.net_client_resent_batches = s.counter_or("net.client.retry.resent_batches");
  r.net_client_resent_bytes = s.counter_or("net.client.retry.resent_bytes");
  r.net_batch_ns = dist_or_empty(s, "net.ingest.batch_ns");
  // Tenant rows: every net.tenant.<name>.<what> counter becomes one cell.
  for (const CounterValue& c : s.counters) {
    constexpr std::string_view kPrefix = "net.tenant.";
    if (c.name.size() <= kPrefix.size() ||
        c.name.compare(0, kPrefix.size(), kPrefix) != 0)
      continue;
    const std::size_t dot = c.name.rfind('.');
    if (dot <= kPrefix.size()) continue;
    const std::string tenant = c.name.substr(kPrefix.size(),
                                             dot - kPrefix.size());
    const std::string what = c.name.substr(dot + 1);
    if (what == "frames") r.net_tenants[tenant].frames = c.value;
    else if (what == "raw_bytes") r.net_tenants[tenant].raw_bytes = c.value;
  }
  return r;
}

bool PipelineReport::reconcile() {
  reconciled = true;
  reconcile_note.clear();
  char note[160];

  const bool have_live = frame_bytes_out > 0;
  const bool have_container = container_frames > 0;
  if (have_live && have_container) {
    if (frame_bytes_out != container_stored_bytes) {
      reconciled = false;
      std::snprintf(note, sizeof note,
                    "encoder emitted %" PRIu64
                    " framed bytes but the container holds %" PRIu64,
                    frame_bytes_out, container_stored_bytes);
      reconcile_note = note;
    }
    if (reconciled && chunks != container_frames) {
      reconciled = false;
      std::snprintf(note, sizeof note,
                    "encoder sealed %" PRIu64
                    " chunks but the container holds %" PRIu64 " frames",
                    chunks, container_frames);
      reconcile_note = note;
    }
  }
  // Deflate accounting must agree with itself regardless of source.
  if (reconciled && have_live &&
      stage_deflate.bytes_out > frame_bytes_out) {
    reconciled = false;
    std::snprintf(note, sizeof note,
                  "deflate output %" PRIu64
                  " exceeds total framed bytes %" PRIu64,
                  stage_deflate.bytes_out, frame_bytes_out);
    reconcile_note = note;
  }
  if (reconciled && have_container &&
      container_stored_bytes > container_file_bytes &&
      container_file_bytes > 0) {
    reconciled = false;
    std::snprintf(note, sizeof note,
                  "stored frame bytes %" PRIu64
                  " exceed the container file size %" PRIu64,
                  container_stored_bytes, container_file_bytes);
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

  w.key("stages").begin_object();
  write_stage(w, stage_re);
  write_stage(w, stage_pe);
  write_stage(w, stage_lp);
  write_stage(w, stage_deflate);
  write_stage(w, stage_inflate);
  w.end_object();

  w.key("record").begin_object();
  w.field("events_matched", events_matched);
  w.field("events_unmatched", events_unmatched);
  w.field("chunks", chunks);
  w.field("frame_bytes_out", frame_bytes_out);
  w.field("epoch_cuts", epoch_cuts);
  w.field("epoch_deferrals", epoch_deferrals);
  write_dist(w, "epoch_flush_events", epoch_flush_events);
  write_dist(w, "epoch_flush_ns", epoch_flush_ns);
  w.field("deflate_mb_per_s", deflate_mb_per_s());
  w.key("buffer_pool").begin_object();
  w.field("hits", pool_hits);
  w.field("misses", pool_misses);
  w.field("recycled_bytes", pool_recycled_bytes);
  w.field("hit_rate", pool_hit_rate());
  w.end_object();
  w.end_object();

  w.key("decode").begin_object();
  w.field("inflate_mb_per_s", inflate_mb_per_s());
  w.field("epoch_streams", epoch_streams);
  w.field("epoch_fallbacks", epoch_fallbacks);
  w.end_object();

  w.key("simulator").begin_object();
  w.field("messages_sent", sim_messages);
  w.field("scheduler_events", sim_events);
  w.field("mf_calls", sim_mf_calls);
  w.field("faults", sim_faults);
  w.field("virtual_seconds", sim_virtual_seconds);
  w.field("max_queue_depth", sim_max_queue_depth);
  w.field("max_live_requests", sim_max_live_requests);
  w.field("max_unexpected", sim_max_unexpected);
  w.field("unexpected_scanned", sim_unexpected_scanned);
  w.field("irecv_scanned", sim_irecv_scanned);
  w.key("executor").begin_object();
  w.field("runs", exec_runs);
  w.field("workers", exec_workers);
  w.field("windows", exec_windows);
  w.field("steals", exec_steals);
  w.field("barrier_waits", exec_barrier_waits);
  write_dist(w, "worker_events", exec_worker_events);
  w.end_object();
  w.end_object();

  w.key("corpus").begin_object();
  w.field("members", corpus_members);
  w.field("streams", corpus_streams);
  w.field("raw_bytes", corpus_raw_bytes);
  w.field("stored_bytes", corpus_stored_bytes);
  w.field("dedup_ratio", corpus_dedup_ratio());
  w.end_object();

  w.key("net").begin_object();
  w.field("conns_accepted", net_conns_accepted);
  w.field("conns_closed", net_conns_closed);
  w.field("msgs_in", net_msgs_in);
  w.field("msgs_out", net_msgs_out);
  w.field("bytes_in", net_bytes_in);
  w.field("bytes_out", net_bytes_out);
  w.field("errors_sent", net_errors_sent);
  w.field("parse_errors", net_parse_errors);
  w.field("backpressure_suspensions", net_suspensions);
  w.field("sessions_opened", net_sessions_opened);
  w.field("sessions_sealed", net_sessions_sealed);
  w.field("sessions_aborted", net_sessions_aborted);
  w.field("ingest_frames", net_ingest_frames);
  w.field("ingest_raw_bytes", net_ingest_raw_bytes);
  w.field("ingest_batches", net_ingest_batches);
  w.field("replay_windows", net_replay_windows);
  w.field("replay_window_bytes", net_replay_window_bytes);
  w.key("resume").begin_object();
  w.field("sessions", net_resume_sessions);
  w.field("recovered", net_resume_recovered);
  w.field("parked", net_resume_parked);
  w.field("deduped", net_resume_deduped);
  w.field("discarded", net_resume_discarded);
  w.end_object();
  w.key("client_retry").begin_object();
  w.field("reconnects", net_client_reconnects);
  w.field("resumes", net_client_resumes);
  w.field("resent_batches", net_client_resent_batches);
  w.field("resent_bytes", net_client_resent_bytes);
  w.end_object();
  write_dist(w, "ingest_batch_ns", net_batch_ns);
  w.key("tenants").begin_object();
  for (const auto& [tenant, row] : net_tenants) {
    w.key(tenant).begin_object();
    w.field("frames", row.frames);
    w.field("raw_bytes", row.raw_bytes);
    w.end_object();
  }
  w.end_object();
  w.end_object();

  w.key("container").begin_object();
  w.field("file_bytes", container_file_bytes);
  w.field("frames", container_frames);
  w.field("stored_bytes", container_stored_bytes);
  w.field("raw_bytes", container_raw_bytes);
  w.field("chunk_events", container_chunk_events);
  w.field("chunk_values", container_chunk_values);
  w.field("writer_frames", writer_frames);
  w.field("writer_payload_bytes", writer_payload_bytes);
  w.field("sealed", container_sealed);
  w.key("codec_frames").begin_object();
  for (const auto& [codec, frames] : container_codec_frames)
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
  if (sim_events > 0)
    std::fprintf(out,
                 "simulator : %" PRIu64 " events, %" PRIu64
                 " messages, %" PRIu64 " MF calls, %" PRIu64
                 " faults, %.6f virtual s (longest run); per rank max "
                 "%" PRIu64 " queued events, %" PRIu64
                 " live receives, %" PRIu64
                 " unexpected; unexpected entries scanned: %" PRIu64
                 " by MF polls, %" PRIu64 " by receive posts\n",
                 sim_events, sim_messages, sim_mf_calls, sim_faults,
                 sim_virtual_seconds, sim_max_queue_depth,
                 sim_max_live_requests, sim_max_unexpected,
                 sim_unexpected_scanned, sim_irecv_scanned);
  if (exec_runs > 0)
    std::fprintf(out,
                 "executor  : %" PRIu64 " run(s), max %" PRIu64
                 " worker(s), %" PRIu64 " windows, %" PRIu64
                 " steals, %" PRIu64
                 " idle worker-windows; events/worker p50 %.0f max %" PRIu64
                 "\n",
                 exec_runs, exec_workers, exec_windows, exec_steals,
                 exec_barrier_waits, exec_worker_events.p50,
                 exec_worker_events.max);
  if (events_matched > 0) {
    std::fprintf(out,
                 "record    : %" PRIu64 " matched + %" PRIu64
                 " unmatched events -> %" PRIu64 " chunks (%s framed)\n",
                 events_matched, events_unmatched, chunks,
                 bytes(frame_bytes_out).c_str());
    std::fprintf(out,
                 "epoch     : %" PRIu64 " clean cuts, %" PRIu64
                 " deferrals; events/flush p50 %.0f p99 %.0f; "
                 "flush ns p50 %.0f p99 %.0f\n",
                 epoch_cuts, epoch_deferrals, epoch_flush_events.p50,
                 epoch_flush_events.p99, epoch_flush_ns.p50,
                 epoch_flush_ns.p99);
    const StageReport* stages[] = {&stage_re, &stage_pe, &stage_lp,
                                   &stage_deflate};
    for (const StageReport* s : stages) {
      std::fprintf(out,
                   "  stage %-24s %8" PRIu64 " calls %10.3f ms",
                   s->name.c_str(), s->calls,
                   static_cast<double>(s->ns) * 1e-6);
      if (s->bytes_in > 0 || s->bytes_out > 0)
        std::fprintf(out, "  %s -> %s", bytes(s->bytes_in).c_str(),
                     bytes(s->bytes_out).c_str());
      if (s->values_out > 0)
        std::fprintf(out, "  %" PRIu64 " values", s->values_out);
      if (s == &stage_deflate && s->ns > 0)
        std::fprintf(out, "  %.1f MB/s", deflate_mb_per_s());
      std::fprintf(out, "\n");
    }
  }
  if (pool_hits + pool_misses > 0)
    std::fprintf(out,
                 "buffers   : %" PRIu64 " pool hits / %" PRIu64
                 " misses (%.1f%% reuse), %s recycled\n",
                 pool_hits, pool_misses, 100.0 * pool_hit_rate(),
                 bytes(pool_recycled_bytes).c_str());
  if (stage_inflate.calls > 0)
    std::fprintf(out,
                 "  stage %-24s %8" PRIu64 " calls %10.3f ms  %s -> %s"
                 "  %.1f MB/s\n",
                 stage_inflate.name.c_str(), stage_inflate.calls,
                 static_cast<double>(stage_inflate.ns) * 1e-6,
                 bytes(stage_inflate.bytes_in).c_str(),
                 bytes(stage_inflate.bytes_out).c_str(),
                 inflate_mb_per_s());
  if (epoch_streams > 0 || epoch_fallbacks > 0)
    std::fprintf(out,
                 "epoch idx : %" PRIu64 " streams indexed, %" PRIu64
                 " windowed-read fallbacks\n",
                 epoch_streams, epoch_fallbacks);
  if (corpus_members > 0) {
    std::fprintf(out,
                 "corpus    : %" PRIu64 " members, %" PRIu64
                 " streams, %s raw -> %s stored, dedup %.2fx\n",
                 corpus_members, corpus_streams,
                 bytes(corpus_raw_bytes).c_str(),
                 bytes(corpus_stored_bytes).c_str(), corpus_dedup_ratio());
  }
  if (net_conns_accepted > 0) {
    std::fprintf(out,
                 "net       : %" PRIu64 " conns, %" PRIu64 " msgs in / %"
                 PRIu64 " out (%s / %s), %" PRIu64 " errors, %" PRIu64
                 " suspensions\n",
                 net_conns_accepted, net_msgs_in, net_msgs_out,
                 bytes(net_bytes_in).c_str(), bytes(net_bytes_out).c_str(),
                 net_errors_sent, net_suspensions);
    std::fprintf(out,
                 "  sessions: %" PRIu64 " opened, %" PRIu64 " sealed, %"
                 PRIu64 " aborted; %" PRIu64 " frames (%s raw) in %" PRIu64
                 " batches; %" PRIu64 " windows (%s) out\n",
                 net_sessions_opened, net_sessions_sealed,
                 net_sessions_aborted, net_ingest_frames,
                 bytes(net_ingest_raw_bytes).c_str(), net_ingest_batches,
                 net_replay_windows,
                 bytes(net_replay_window_bytes).c_str());
    if (net_resume_sessions > 0 || net_resume_recovered > 0 ||
        net_resume_parked > 0 || net_client_reconnects > 0) {
      std::fprintf(out,
                   "  resume  : %" PRIu64 " sessions, %" PRIu64
                   " recovered, %" PRIu64 " parked, %" PRIu64
                   " deduped, %" PRIu64 " discarded; clients %" PRIu64
                   " reconnects, %" PRIu64 " batches re-sent (%s)\n",
                   net_resume_sessions, net_resume_recovered,
                   net_resume_parked, net_resume_deduped,
                   net_resume_discarded, net_client_reconnects,
                   net_client_resent_batches,
                   bytes(net_client_resent_bytes).c_str());
    }
    for (const auto& [tenant, row] : net_tenants)
      std::fprintf(out, "  tenant %-16s %8" PRIu64 " frames  %s\n",
                   tenant.c_str(), row.frames,
                   bytes(row.raw_bytes).c_str());
  }
  if (container_frames > 0) {
    std::fprintf(out,
                 "container : %" PRIu64 " frames, %s stored (%s raw "
                 "chunks), file %s, %ssealed\n",
                 container_frames, bytes(container_stored_bytes).c_str(),
                 bytes(container_raw_bytes).c_str(),
                 bytes(container_file_bytes).c_str(),
                 container_sealed ? "" : "NOT ");
    for (const auto& [codec, frames] : container_codec_frames)
      std::fprintf(out, "  codec %-16s %8" PRIu64 " frames\n",
                   codec.c_str(), frames);
    if (container_chunk_events > 0)
      std::fprintf(out,
                   "  CDC chunks: %" PRIu64 " matched events, %" PRIu64
                   " stored values (%.3f values/event)\n",
                   container_chunk_events, container_chunk_values,
                   static_cast<double>(container_chunk_values) /
                       static_cast<double>(container_chunk_events));
  }
  std::fprintf(out, "reconcile : %s — %s\n", reconciled ? "OK" : "FAILED",
               reconcile_note.c_str());
}

}  // namespace cdc::obs
