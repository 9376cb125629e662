// The per-run pipeline report: one structured answer to "where did the
// bytes and the time go" for a record/replay run.
//
// Two data sources fill it:
//   * the live metrics snapshot of an instrumented run (stage timings,
//     epoch flush distribution, output-buffer reuse) — see
//     PipelineReport::from_snapshot and the metric names in DESIGN.md §8;
//   * a record container on disk, decoded frame by frame (byte totals per
//     stage, frame counts per codec) — filled by tool::inspect_pipeline,
//     which lives above the store layer.
// When both are present, reconcile() cross-checks them: the bytes the
// encoder reported writing must equal the bytes the container actually
// holds.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.h"

namespace cdc::obs {

/// One codec stage: work in, work out, time spent.
struct StageReport {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Stored-value accounting (the paper's 55 → 23 → 19 arithmetic) where
  /// bytes are not yet meaningful for a stage.
  std::uint64_t values_out = 0;
};

/// Compact histogram summary for the report (latency distributions).
struct DistReport {
  std::uint64_t count = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  static DistReport from(const HistogramValue& h);
};

struct PipelineReport {
  // --- live section (zero when built from a cold container) -------------
  /// redundancy elimination → permutation → LP serialize → gzip/DEFLATE.
  StageReport stage_re{"redundancy_elimination"};
  StageReport stage_pe{"permutation"};
  StageReport stage_lp{"lp_serialize"};
  StageReport stage_deflate{"deflate"};
  std::uint64_t events_matched = 0;
  std::uint64_t events_unmatched = 0;
  std::uint64_t chunks = 0;
  std::uint64_t frame_bytes_out = 0;  ///< framed bytes the encoder emitted

  std::uint64_t epoch_cuts = 0;
  std::uint64_t epoch_deferrals = 0;  ///< flushes postponed by a dirty cut
  DistReport epoch_flush_events;      ///< matched events per flushed chunk
  DistReport epoch_flush_ns;          ///< wall ns per flush call

  /// Output-buffer recycling (store.pool.*: the frame sink's scratch
  /// buffer, one hit or miss per encoded frame).
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_recycled_bytes = 0;

  std::uint64_t sim_messages = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t sim_mf_calls = 0;
  std::uint64_t sim_faults = 0;
  /// Unexpected-queue entries MF polls visited (sim.unexpected_scanned).
  std::uint64_t sim_unexpected_scanned = 0;
  /// Unexpected-queue entries post_irecv compared (sim.irecv_scanned).
  std::uint64_t sim_irecv_scanned = 0;
  /// The per-run values below are maxima over the simulator runs in the
  /// snapshot (a record plus a replay is two runs); the counts above are
  /// sums.
  double sim_virtual_seconds = 0.0;  ///< longest run's virtual end time
  /// Event-queue high-water mark (sim.max_queue_depth — the deepest
  /// per-rank shard heap of any run).
  std::uint64_t sim_max_queue_depth = 0;
  /// Most receives live at once on one rank (sim.max_live_requests).
  std::uint64_t sim_max_live_requests = 0;
  /// Deepest unexpected queue on one rank (sim.max_unexpected).
  std::uint64_t sim_max_unexpected = 0;

  // --- executor section (zero when no simulator ran — DESIGN.md §15) ------
  std::uint64_t exec_runs = 0;              ///< simulator runs covered
  std::uint64_t exec_workers = 0;           ///< most worker threads of a run
  std::uint64_t exec_windows = 0;           ///< horizon advances (windows)
  std::uint64_t exec_steals = 0;            ///< cross-worker rank claims
  std::uint64_t exec_barrier_waits = 0;     ///< worker-windows spent idle
  DistReport exec_worker_events;            ///< events per worker, whole run

  std::uint64_t writer_frames = 0;
  std::uint64_t writer_payload_bytes = 0;

  // --- decode section (zero for record-only runs) -------------------------
  /// DEFLATE decode (tool::read_frame) — the mirror of stage_deflate.
  StageReport stage_inflate{"inflate"};
  /// Epoch-index bookkeeping: streams indexed at seal time, and windowed
  /// reads that had to fall back to a sequential scan (damaged or absent
  /// index) — a nonzero fallback count on a fresh container is a bug.
  std::uint64_t epoch_streams = 0;
  std::uint64_t epoch_fallbacks = 0;

  // --- corpus section (zero when no corpus store ran) --------------------
  std::uint64_t corpus_members = 0;
  std::uint64_t corpus_streams = 0;
  std::uint64_t corpus_raw_bytes = 0;     ///< member payloads before dedup
  std::uint64_t corpus_stored_bytes = 0;  ///< corpus frame bytes written

  // --- net section (zero when no record service ran) ----------------------
  std::uint64_t net_conns_accepted = 0;
  std::uint64_t net_conns_closed = 0;
  std::uint64_t net_msgs_in = 0;
  std::uint64_t net_msgs_out = 0;
  std::uint64_t net_bytes_in = 0;
  std::uint64_t net_bytes_out = 0;
  std::uint64_t net_errors_sent = 0;
  std::uint64_t net_parse_errors = 0;
  std::uint64_t net_suspensions = 0;  ///< backpressure read-suspensions
  std::uint64_t net_sessions_opened = 0;
  std::uint64_t net_sessions_sealed = 0;
  std::uint64_t net_sessions_aborted = 0;
  std::uint64_t net_ingest_frames = 0;
  std::uint64_t net_ingest_raw_bytes = 0;
  std::uint64_t net_ingest_batches = 0;
  std::uint64_t net_replay_windows = 0;
  std::uint64_t net_replay_window_bytes = 0;
  // Crash-safe resume (DESIGN.md §14): server-side session lifecycle
  // and client-side retry activity.
  std::uint64_t net_resume_sessions = 0;    ///< resumed via v2 HELLO
  std::uint64_t net_resume_recovered = 0;   ///< journaled partials at start
  std::uint64_t net_resume_parked = 0;      ///< partials kept on disconnect
  std::uint64_t net_resume_deduped = 0;     ///< re-sent batches dropped
  std::uint64_t net_resume_discarded = 0;   ///< unresumable partials removed
  std::uint64_t net_client_reconnects = 0;
  std::uint64_t net_client_resumes = 0;
  std::uint64_t net_client_resent_batches = 0;
  std::uint64_t net_client_resent_bytes = 0;
  DistReport net_batch_ns;  ///< per-batch ingest wall time
  /// Per-tenant ingest totals, keyed by tenant name (the server registers
  /// net.tenant.<name>.frames / .raw_bytes counters per tenant).
  struct NetTenantRow {
    std::uint64_t frames = 0;
    std::uint64_t raw_bytes = 0;
  };
  std::map<std::string, NetTenantRow> net_tenants;

  // --- container section (zero without a container) ----------------------
  std::uint64_t container_file_bytes = 0;
  std::uint64_t container_frames = 0;
  /// Tool-frame bytes (header + compressed payload) summed over frames —
  /// what must match frame_bytes_out and the index payload accounting.
  std::uint64_t container_stored_bytes = 0;
  /// Decompressed chunk payload bytes (the deflate stage's input side).
  std::uint64_t container_raw_bytes = 0;
  std::uint64_t container_chunk_events = 0;   ///< matched N over CDC chunks
  std::uint64_t container_chunk_values = 0;   ///< stored-value accounting
  std::map<std::string, std::uint64_t> container_codec_frames;
  bool container_sealed = false;

  // --- reconciliation -----------------------------------------------------
  bool reconciled = false;
  std::string reconcile_note;

  /// DEFLATE stage throughput in MB/s (raw bytes in over stage wall time);
  /// 0 when the stage recorded no time.
  [[nodiscard]] double deflate_mb_per_s() const noexcept;

  /// Inflate stage throughput in MB/s measured on the raw (decompressed)
  /// side, so it is directly comparable to deflate_mb_per_s(); 0 when the
  /// stage recorded no time.
  [[nodiscard]] double inflate_mb_per_s() const noexcept;

  /// Fraction of frame encodes that reused a recycled output buffer,
  /// in [0, 1]; 0 when nothing was encoded.
  [[nodiscard]] double pool_hit_rate() const noexcept;

  /// Corpus dedup ratio: member raw bytes over corpus stored bytes (the
  /// "dedup" column); 0 when no corpus ingest ran.
  [[nodiscard]] double corpus_dedup_ratio() const noexcept;

  /// Fills the live section from a metrics snapshot.
  static PipelineReport from_snapshot(const MetricsSnapshot& snapshot);

  /// Cross-checks live totals against the container section (call after
  /// both are filled); sets `reconciled`/`reconcile_note` and returns
  /// `reconciled`. With no live data it only checks the container's
  /// internal consistency.
  bool reconcile();

  [[nodiscard]] std::string to_json() const;
  void print(std::FILE* out) const;
};

}  // namespace cdc::obs
