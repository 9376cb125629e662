#include "support/oracle.h"

#include <cstdio>
#include <mutex>

#include "compress/crc32.h"

namespace cdc::support {

namespace {

std::string format_event(const ObservedEvent& e) {
  char buf[128];
  if (!e.matched) return "{unmatched-test}";
  std::snprintf(buf, sizeof buf,
                "{src=%d tag=%d clock=%llu payload=%lluB crc=%08x}",
                e.source, e.tag,
                static_cast<unsigned long long>(e.piggyback),
                static_cast<unsigned long long>(e.payload_size),
                e.payload_crc);
  return buf;
}

std::string format_key(const runtime::StreamKey& key) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "(rank=%d, callsite=%u)", key.rank,
                key.callsite);
  return buf;
}

constexpr std::size_t kMaxMismatches = 8;

void add_mismatch(OracleReport& report, std::string text) {
  report.ok = false;
  if (report.mismatches.size() < kMaxMismatches)
    report.mismatches.push_back(std::move(text));
}

const StreamTrace& stream_of(const Trace& trace,
                             const runtime::StreamKey& key) {
  // A missing stream holds no events: the probe only creates a stream
  // entry once an event lands there.
  static const StreamTrace kEmpty;
  const auto it = trace.find(key);
  return it == trace.end() ? kEmpty : it->second;
}

/// Compares events [begin, end) of one stream after checking that both
/// traces hold them; `exact` also requires the replayed stream to end at
/// `end`.
void compare_stream(OracleReport& report, const runtime::StreamKey& key,
                    const StreamTrace& recorded, const StreamTrace& replayed,
                    std::uint64_t begin, std::uint64_t end, bool exact) {
  if (end > recorded.size()) {
    add_mismatch(report, format_key(key) + ": claimed events [" +
                             std::to_string(begin) + ", " +
                             std::to_string(end) + ") exceed recorded " +
                             std::to_string(recorded.size()) + " events");
    return;
  }
  if (replayed.size() < end || (exact && replayed.size() != end)) {
    add_mismatch(report, format_key(key) + ": recorded " +
                             std::to_string(end) + " events, replayed " +
                             std::to_string(replayed.size()));
    return;
  }
  for (std::uint64_t i = begin; i < end; ++i) {
    ++report.events_compared;
    if (recorded[i] == replayed[i]) continue;
    add_mismatch(report, format_key(key) + " event " + std::to_string(i) +
                             ": recorded " + format_event(recorded[i]) +
                             " != replayed " + format_event(replayed[i]));
    return;  // one diagnosis per stream; later events usually cascade
  }
}

OracleReport compare_traces(
    const Trace& recorded, const Trace& replayed,
    const std::map<runtime::StreamKey, std::uint64_t>* prefix_lengths) {
  OracleReport report;
  for (const auto& [key, rec_stream] : recorded) {
    ++report.streams_compared;
    std::uint64_t end = rec_stream.size();
    if (prefix_lengths != nullptr) {
      const auto it = prefix_lengths->find(key);
      end = it == prefix_lengths->end() ? 0 : it->second;
    }
    compare_stream(report, key, rec_stream, stream_of(replayed, key), 0, end,
                   prefix_lengths == nullptr);
  }
  if (prefix_lengths == nullptr) {
    for (const auto& [key, rep_stream] : replayed) {
      if (!recorded.contains(key) && !rep_stream.empty())
        add_mismatch(report, format_key(key) + ": replay surfaced " +
                                 std::to_string(rep_stream.size()) +
                                 " events on a stream never recorded");
    }
  }
  return report;
}

}  // namespace

// --- OrderProbe ------------------------------------------------------------

std::uint64_t OrderProbe::on_send(minimpi::Rank sender) {
  return inner_ != nullptr ? inner_->on_send(sender)
                           : ToolHooks::on_send(sender);
}

minimpi::SelectResult OrderProbe::select(
    minimpi::Rank rank, minimpi::CallsiteId callsite, minimpi::MFKind kind,
    std::span<const minimpi::Candidate> candidates,
    std::size_t total_requests, bool blocking) {
  return inner_ != nullptr
             ? inner_->select(rank, callsite, kind, candidates,
                              total_requests, blocking)
             : ToolHooks::select(rank, callsite, kind, candidates,
                                 total_requests, blocking);
}

void OrderProbe::on_unmatched_test(minimpi::Rank rank,
                                   minimpi::CallsiteId callsite) {
  ObservedEvent event;
  event.matched = false;
  {
    std::lock_guard<std::mutex> lock(trace_mu_);
    trace_[runtime::StreamKey{rank, callsite}].push_back(event);
  }
  if (inner_ != nullptr) inner_->on_unmatched_test(rank, callsite);
}

void OrderProbe::on_deliver(minimpi::Rank rank, minimpi::CallsiteId callsite,
                            minimpi::MFKind kind,
                            std::span<const minimpi::Completion> events) {
  {
    std::lock_guard<std::mutex> lock(trace_mu_);
    auto& stream = trace_[runtime::StreamKey{rank, callsite}];
    for (const minimpi::Completion& c : events) {
      ObservedEvent event;
      event.matched = true;
      event.source = c.source;
      event.tag = c.tag;
      event.piggyback = c.piggyback;
      event.payload_crc = compress::crc32(c.payload);
      event.payload_size = c.payload.size();
      stream.push_back(event);
    }
  }
  if (inner_ != nullptr) inner_->on_deliver(rank, callsite, kind, events);
}

void OrderProbe::on_deadlock() {
  if (inner_ != nullptr) inner_->on_deadlock();
}

bool OrderProbe::on_stall() {
  // Semantics-affecting: forwarded verbatim so probing a replayer does not
  // change when (or whether) it releases partial-record gating.
  return inner_ != nullptr && inner_->on_stall();
}

void OrderProbe::on_fault(minimpi::FaultKind kind, minimpi::Rank rank) {
  fault_counts_[static_cast<std::size_t>(kind)].fetch_add(
      1, std::memory_order_relaxed);
  if (inner_ != nullptr) inner_->on_fault(kind, rank);
}

void OrderProbe::on_parallel_start(int workers) {
  if (inner_ != nullptr) inner_->on_parallel_start(workers);
}

void OrderProbe::on_window(double horizon) {
  if (inner_ != nullptr) inner_->on_window(horizon);
}

std::uint64_t OrderProbe::total_events() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [key, stream] : trace_) total += stream.size();
  return total;
}

// --- Oracle checks ---------------------------------------------------------

std::string OracleReport::summary() const {
  std::string out = ok ? "oracle OK: " : "oracle FAILED: ";
  out += std::to_string(streams_compared) + " streams, " +
         std::to_string(events_compared) + " events compared";
  for (const std::string& m : mismatches) out += "\n  " + m;
  return out;
}

OracleReport check_equivalence(const Trace& recorded, const Trace& replayed) {
  return compare_traces(recorded, replayed, nullptr);
}

OracleReport check_prefix(
    const Trace& recorded, const Trace& replayed,
    const std::map<runtime::StreamKey, std::uint64_t>& prefix_lengths) {
  return compare_traces(recorded, replayed, &prefix_lengths);
}

OracleReport check_slices(
    const Trace& reference, const Trace& replayed,
    const std::map<runtime::StreamKey, EventSpan>& slices) {
  OracleReport report;
  for (const auto& [key, span] : slices) {
    if (span.end <= span.begin) continue;
    ++report.streams_compared;
    compare_stream(report, key, stream_of(reference, key),
                   stream_of(replayed, key), span.begin, span.end, false);
  }
  if (report.ok && report.events_compared == 0)
    add_mismatch(report, "the slices cover no event");
  return report;
}

}  // namespace cdc::support
