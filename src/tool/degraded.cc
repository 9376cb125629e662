#include "tool/degraded.h"

#include <algorithm>
#include <map>

#include "obs/json.h"
#include "obs/metrics.h"
#include "record/chunk.h"
#include "store/container_reader.h"
#include "store/resilient.h"
#include "support/binary.h"
#include "tool/frame.h"
#include "tool/options.h"

namespace cdc::tool {

namespace {

/// Receive events (matched deliveries + unmatched tests) decodable from
/// one container frame's payload. Only the CDC-full codec stores the
/// counts the oracle compares; other codecs contribute 0 (the bench and
/// the fuzzer run CDC-full, so this is the accounting that matters).
std::uint64_t events_in_payload(std::span<const std::uint8_t> bytes) {
  support::ByteReader reader(bytes);
  std::uint64_t events = 0;
  while (auto frame = read_frame(reader)) {
    if (frame->codec != static_cast<std::uint8_t>(RecordCodec::kCdcFull))
      continue;
    support::ByteReader payload(frame->payload);
    const auto chunk = record::read_chunk(payload);
    if (!chunk) break;
    events += chunk->num_matched;
    for (const record::UnmatchedRun& run : chunk->unmatched)
      events += run.count;
  }
  return events;
}

/// One open and one scan of a container: its gap report and the frames
/// degraded replay loads (file order; they alias the reader's buffer).
struct Inspection {
  std::unique_ptr<store::ContainerReader> reader;
  GapReport report;
  std::vector<store::ContainerReader::GoodFrame> kept;
};

Inspection inspect(const std::string& container_path,
                   const std::string& quarantine_path) {
  Inspection out;
  GapReport& report = out.report;
  report.container_path = container_path;
  std::string error;
  out.reader = store::ContainerReader::open(container_path, &error);
  if (out.reader == nullptr) {
    report.container_errors.push_back(error);
    return out;
  }
  const store::ContainerReader& reader = *out.reader;
  if (!reader.header_ok())
    report.container_errors.push_back(reader.header_error());
  if (!reader.index_ok())
    report.container_errors.push_back(reader.index_error());
  report.container_sealed = reader.header_ok() && reader.index_ok();

  // What the container promises per stream, and where an index-less scan
  // gave up.
  const store::ContainerReader::Listing listing = reader.list_frames();
  if (!listing.scan_stop.empty())
    report.container_errors.push_back(listing.scan_stop);
  std::map<runtime::StreamKey, StreamGap> streams;  // key order
  for (const auto& [key, listed] : listing.listed)
    streams[key].frames_listed = listed;

  // Quarantined frames (exhausted retries, store/resilient.h) leave holes
  // the container cannot see: the store packs later appends densely, so
  // the `.cdcq` sidecar's stream positions are the only record of where
  // each hole sits, and a stream's replayable prefix ends at its first.
  std::map<runtime::StreamKey, std::uint64_t> first_hole;
  if (!quarantine_path.empty()) {
    for (const store::QuarantinedFrame& frame :
         store::read_quarantine(quarantine_path)) {
      ++report.quarantined_frames;
      report.quarantined_bytes += frame.bytes.size();
      ++streams[frame.key].frames_listed;  // the container can't list it
      const auto [it, inserted] = first_hole.emplace(frame.key, frame.seq);
      if (!inserted) it->second = std::min(it->second, frame.seq);
    }
  }

  out.kept = store::replayable_frames(listing.good, first_hole);
  for (const auto& frame : out.kept) {
    StreamGap& gap = streams[frame.key];
    ++gap.frames_intact;
    gap.bytes_kept += frame.payload.size();
    gap.events_kept += events_in_payload(frame.payload);
  }

  // Defects per (key, seq) — the reason a prefix ends where it does.
  std::map<std::pair<runtime::StreamKey, std::uint64_t>, std::string> defects;
  for (const store::FrameDefect& defect : reader.verify().bad_frames)
    if (defect.key_known)
      defects.emplace(std::make_pair(defect.key, defect.seq), defect.reason);

  for (auto& [key, gap] : streams) {
    gap.key = key;
    gap.truncated = gap.frames_intact < gap.frames_listed;
    if (gap.truncated) {
      const auto hole = first_hole.find(key);
      if (hole != first_hole.end() && hole->second == gap.frames_intact) {
        gap.gap_reason = "frame quarantined after exhausted retries";
      } else {
        const auto defect =
            defects.find(std::make_pair(key, gap.frames_intact));
        gap.gap_reason = defect != defects.end()
                             ? defect->second
                             : "frame missing (container truncated?)";
      }
    }
    report.streams.push_back(std::move(gap));
  }
  return out;
}

}  // namespace

std::uint64_t GapReport::frames_listed_total() const noexcept {
  std::uint64_t total = 0;
  for (const StreamGap& gap : streams) total += gap.frames_listed;
  return total;
}

std::uint64_t GapReport::frames_intact_total() const noexcept {
  std::uint64_t total = 0;
  for (const StreamGap& gap : streams) total += gap.frames_intact;
  return total;
}

std::uint64_t GapReport::events_kept_total() const noexcept {
  std::uint64_t total = 0;
  for (const StreamGap& gap : streams) total += gap.events_kept;
  return total;
}

double GapReport::frame_coverage() const noexcept {
  const std::uint64_t listed = frames_listed_total();
  if (listed == 0) return 1.0;
  return static_cast<double>(frames_intact_total()) /
         static_cast<double>(listed);
}

bool GapReport::degraded() const noexcept {
  if (!container_errors.empty() || quarantined_frames > 0) return true;
  return std::any_of(streams.begin(), streams.end(),
                     [](const StreamGap& gap) { return gap.truncated; });
}

std::string GapReport::to_json() const {
  obs::JsonWriter json;
  json.begin_object();
  json.field("container", container_path);
  json.field("sealed", container_sealed);
  json.field("degraded", degraded());
  json.key("errors").begin_array();
  for (const std::string& error : container_errors) json.value(error);
  json.end_array();
  json.key("quarantine").begin_object();
  json.field("frames", quarantined_frames);
  json.field("bytes", quarantined_bytes);
  json.end_object();
  json.key("coverage").begin_object();
  json.field("frames_listed", frames_listed_total());
  json.field("frames_intact", frames_intact_total());
  json.field("events_kept", events_kept_total());
  json.field("frame_coverage", frame_coverage());
  json.end_object();
  json.key("streams").begin_array();
  for (const StreamGap& gap : streams) {
    json.begin_object();
    json.field("rank", gap.key.rank);
    json.field("callsite", gap.key.callsite);
    json.field("frames_listed", gap.frames_listed);
    json.field("frames_intact", gap.frames_intact);
    json.field("bytes_kept", gap.bytes_kept);
    json.field("events_kept", gap.events_kept);
    json.field("truncated", gap.truncated);
    json.field("gap_reason", gap.gap_reason);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return std::move(json).take();
}

void GapReport::print(std::FILE* out) const {
  std::fprintf(out, "gap report: %s (%s)\n", container_path.c_str(),
               container_sealed ? "sealed" : "unsealed/damaged");
  for (const std::string& error : container_errors)
    std::fprintf(out, "  container: %s\n", error.c_str());
  for (const StreamGap& gap : streams) {
    std::fprintf(out,
                 "  stream rank=%d callsite=%u: %llu/%llu frames intact "
                 "(%llu events, %llu B)%s%s\n",
                 gap.key.rank, gap.key.callsite,
                 static_cast<unsigned long long>(gap.frames_intact),
                 static_cast<unsigned long long>(gap.frames_listed),
                 static_cast<unsigned long long>(gap.events_kept),
                 static_cast<unsigned long long>(gap.bytes_kept),
                 gap.truncated ? " — GAP: " : "",
                 gap.truncated ? gap.gap_reason.c_str() : "");
  }
  if (quarantined_frames > 0)
    std::fprintf(out, "  quarantine sidecar: %llu frame(s), %llu B\n",
                 static_cast<unsigned long long>(quarantined_frames),
                 static_cast<unsigned long long>(quarantined_bytes));
  std::fprintf(out, "  replayable coverage: %.1f%% of %llu frames%s\n",
               100.0 * frame_coverage(),
               static_cast<unsigned long long>(frames_listed_total()),
               degraded() ? "" : " (record is whole)");
}

GapReport inspect_gaps(const std::string& container_path,
                       const std::string& quarantine_path) {
  return inspect(container_path, quarantine_path).report;
}

std::unique_ptr<DegradedRecord> load_degraded(
    const std::string& container_path, const std::string& quarantine_path) {
  auto record = std::make_unique<DegradedRecord>();
  Inspection inspection = inspect(container_path, quarantine_path);
  for (const auto& frame : inspection.kept)
    record->store.append(frame.key, frame.payload);
  record->report = std::move(inspection.report);

  obs::gauge("replay.coverage_pct")
      .add(static_cast<std::int64_t>(
          100.0 * record->report.frame_coverage()));
  std::int64_t gap_streams = 0;
  for (const StreamGap& gap : record->report.streams)
    if (gap.truncated) ++gap_streams;
  obs::gauge("replay.gap_streams").add(gap_streams);
  return record;
}

}  // namespace cdc::tool
