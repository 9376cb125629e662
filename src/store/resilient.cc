#include "store/resilient.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "compress/crc32.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/container.h"
#include "support/binary.h"
#include "support/check.h"
#include "support/file.h"

namespace cdc::store {

namespace {

// `.cdcq` sidecar format: 8-byte magic, then one entry per quarantined
// frame, laid out as a container frame (store/container.h) with its own
// magic byte so the two can never be confused. Its `seq` is the stream
// position the frame was lost at (see QuarantinedFrame::seq) — the hole
// the container cannot represent.
constexpr char kQuarantineMagic[8] = {'C', 'D', 'C', 'Q', 'U', 'A', 'R', '1'};
constexpr std::uint8_t kQuarantineFrameMagic = 0xF8;

}  // namespace

// --- IoFaultStore ----------------------------------------------------------

IoFaultStore::IoFaultStore(runtime::RecordSink* inner,
                           const IoFaultPlan& plan)
    : inner_(inner),
      plan_(plan),
      rng_(plan.seed ^ 0x10fa17u) {
  CDC_CHECK(inner_ != nullptr);
}

void IoFaultStore::append_impl(const runtime::StreamKey& key,
                               std::span<const std::uint8_t> bytes,
                               const runtime::EpochMeta* meta) {
  // One commit point either flavour, so the fault/retry bookkeeping — and
  // the determinism contract — cannot diverge between the two entry paths.
  const auto commit = [&] {
    if (meta != nullptr)
      inner_->append_epoch(key, bytes, *meta);
    else
      inner_->append(key, bytes);
  };
  std::lock_guard<std::mutex> lock(mutex_);
  const Fingerprint fp{key, bytes.size(), compress::crc32(bytes)};
  if (auto it = pending_.find(fp); it != pending_.end()) {
    // A retry of the operation we faulted.
    if (it->second.hard) {
      ++stats_.hard_throws;
      throw runtime::IoError("injected hard I/O error (retry)");
    }
    if (it->second.remaining_throws > 0) {
      --it->second.remaining_throws;
      ++stats_.transient_throws;
      throw runtime::IoError("injected transient EIO (retry)");
    }
    pending_.erase(it);
    commit();
    return;
  }

  ++stats_.appends;
  bool hard = plan_.hard_every_n > 0 && stats_.appends % plan_.hard_every_n == 0;
  bool fault = hard;
  if (!fault && plan_.eio_every_n > 0 &&
      stats_.appends % plan_.eio_every_n == 0)
    fault = true;
  if (!fault && plan_.eio_probability > 0.0 &&
      rng_.uniform() < plan_.eio_probability)
    fault = true;
  if (!fault) {
    commit();
    return;
  }

  const std::uint32_t failures = std::max(1u, plan_.failures_per_fault);
  pending_.emplace(fp, PendingFault{hard ? 0 : failures - 1, hard});
  if (hard)
    ++stats_.hard_throws;
  else
    ++stats_.transient_throws;
  if (plan_.short_write_probability > 0.0 &&
      rng_.uniform() < plan_.short_write_probability) {
    ++stats_.short_writes;
    const std::uint64_t wrote = rng_.bounded(bytes.size());
    // Rollback contract: the short prefix is NOT committed — the store
    // presents as all-or-nothing, as the container writer requires.
    throw runtime::IoError("injected short write: wrote " +
                           std::to_string(wrote) + " of " +
                           std::to_string(bytes.size()) + " bytes");
  }
  throw runtime::IoError(hard ? "injected hard I/O error"
                              : "injected transient EIO");
}

void IoFaultStore::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sync_faulted_) {
    sync_faulted_ = false;  // the retry succeeds
    inner_->sync();
    return;
  }
  if (plan_.fsync_failure_every_n > 0 &&
      ++syncs_ % plan_.fsync_failure_every_n == 0) {
    sync_faulted_ = true;
    ++stats_.fsync_failures;
    throw runtime::IoError("injected fsync failure");
  }
  inner_->sync();
}

// --- RetryingStore ---------------------------------------------------------

RetryingStore::RetryingStore(runtime::RecordSink* inner,
                             const RetryPolicy& policy,
                             std::string quarantine_path)
    : inner_(inner),
      policy_(policy),
      quarantine_path_(std::move(quarantine_path)),
      jitter_(policy.jitter_seed ^ 0xbac0ffull) {
  CDC_CHECK(inner_ != nullptr);
}

void RetryingStore::backoff(std::uint32_t i) {
  double ms = policy_.initial_backoff_ms;
  for (std::uint32_t k = 0; k < i; ++k) ms *= policy_.backoff_multiplier;
  ms = std::min(ms, policy_.max_backoff_ms);
  const double jitter =
      1.0 + policy_.jitter_fraction * (2.0 * jitter_.uniform() - 1.0);
  ms *= jitter;
  stats_.backoff_ms_total += ms;
  static obs::Histogram& obs_backoff = obs::histogram("store.retry.backoff_us");
  obs_backoff.record(static_cast<std::uint64_t>(ms * 1000.0));
}

void RetryingStore::append_impl(const runtime::StreamKey& key,
                                std::span<const std::uint8_t> bytes,
                                const runtime::EpochMeta* meta) {
  std::lock_guard<std::mutex> lock(mutex_);
  static obs::Counter& obs_retries = obs::counter("store.retry.retries");
  static obs::Counter& obs_recoveries = obs::counter("store.retry.recoveries");
  for (std::uint32_t attempt = 0; attempt <= policy_.max_retries; ++attempt) {
    ++stats_.attempts;
    try {
      if (meta != nullptr)
        inner_->append_epoch(key, bytes, *meta);
      else
        inner_->append(key, bytes);
      ++appended_[key];
      if (attempt > 0) {
        ++stats_.recoveries;
        obs_recoveries.add(1);
      }
      return;
    } catch (const runtime::IoError&) {
      if (attempt == policy_.max_retries) break;  // exhausted
      ++stats_.retries;
      obs_retries.add(1);
      backoff(attempt);
    }
  }
  quarantine(key, bytes);
}

void RetryingStore::quarantine(const runtime::StreamKey& key,
                               std::span<const std::uint8_t> bytes) {
  const std::uint64_t seq = appended_[key];
  ++stats_.quarantined;
  obs::counter("store.quarantine.frames").add(1);
  obs::counter("store.quarantine.bytes").add(bytes.size());
  obs::trace_instant("store.quarantine", key.rank);
  std::fprintf(stderr,
               "cdc store: quarantining frame (rank %d callsite %u, %zu "
               "bytes) after %u failed attempts\n",
               key.rank, key.callsite, bytes.size(),
               policy_.max_retries + 1);
  if (!quarantine_path_.empty()) {
    // First quarantined frame creates the sidecar (header + entry);
    // later ones append. Flushed immediately: the sidecar must survive a
    // subsequent crash of the writer.
    std::ofstream out(quarantine_path_,
                      quarantine_.empty()
                          ? std::ios::binary | std::ios::trunc
                          : std::ios::binary | std::ios::app);
    if (out) {
      if (quarantine_.empty())
        out.write(kQuarantineMagic, sizeof kQuarantineMagic);
      support::ByteWriter entry;
      encode_frame(kQuarantineFrameMagic, key, seq, bytes, entry);
      out.write(reinterpret_cast<const char*>(entry.view().data()),
                static_cast<std::streamsize>(entry.size()));
      out.flush();
    } else {
      std::fprintf(stderr,
                   "cdc store: cannot write quarantine sidecar %s "
                   "(keeping frame in memory only)\n",
                   quarantine_path_.c_str());
    }
  }
  quarantine_.push_back(
      QuarantinedFrame{key, seq, {bytes.begin(), bytes.end()}});
}

void RetryingStore::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::uint32_t attempt = 0; attempt <= policy_.max_retries; ++attempt) {
    try {
      inner_->sync();
      return;
    } catch (const runtime::IoError&) {
      if (attempt == policy_.max_retries) break;
      ++stats_.retries;
      backoff(attempt);
    }
  }
  // A durability barrier that never succeeded: the data is still in the
  // store (appends were acknowledged) — record the weakened guarantee and
  // carry on rather than killing the run.
  ++stats_.sync_failures;
  obs::counter("store.retry.sync_failures").add(1);
  std::fprintf(stderr, "cdc store: sync() exhausted retries (continuing)\n");
}

std::vector<QuarantinedFrame> read_quarantine(const std::string& path) {
  std::vector<QuarantinedFrame> frames;
  const std::optional<std::vector<std::uint8_t>> bytes =
      support::read_file(path);
  if (!bytes.has_value() || bytes->size() < sizeof kQuarantineMagic ||
      std::memcmp(bytes->data(), kQuarantineMagic,
                  sizeof kQuarantineMagic) != 0)
    return frames;
  auto rest =
      std::span<const std::uint8_t>(*bytes).subspan(sizeof kQuarantineMagic);
  while (!rest.empty()) {
    const ParsedFrame entry = parse_frame(kQuarantineFrameMagic, rest);
    if (!entry.parsed || !entry.crc_ok) break;
    frames.push_back(QuarantinedFrame{
        entry.key, entry.seq, {entry.payload.begin(), entry.payload.end()}});
    rest = rest.subspan(static_cast<std::size_t>(entry.frame_size));
  }
  return frames;
}

}  // namespace cdc::store
