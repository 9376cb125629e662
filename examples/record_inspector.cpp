// Record inspector: a release-style utility that dissects CDC record data.
//
// Records a small MCB run into a container-backed store (or inspects an
// existing record given on the command line) and prints, per stream and
// per chunk: event counts, permutation moves, with_next and unmatched-test
// table sizes, the epoch line, stored-value accounting, and compressed
// sizes. Handy when debugging the tool itself or sizing records.
//
//   $ ./record_inspector                     # self-contained demo
//   $ ./record_inspector --container <file>  # inspect a record container
//   $ ./record_inspector --verify <file>     # CRC-verify a container
//   $ ./record_inspector --repack <in> <out> # salvage/compact a container
//   $ ./record_inspector --gaps <file> [quarantine.cdcq]
//                                            # degraded-replay gap report
//                                            # (+ cdc_gap_report.json)
//   $ ./record_inspector --stats             # instrumented demo run:
//                                            # pipeline report + trace JSON
//   $ ./record_inspector --stats <file>      # pipeline report of a container
//   $ ./record_inspector --corpus <file>     # corpus container stats:
//                                            # families, dedup ratio,
//                                            # encoding mix
//
// The recording modes (the default demo and bare `--stats`) accept
//   --level <stored|fast|default|best>
// anywhere on the command line to pick the DEFLATE effort level.
// Unknown flags are rejected with the usage text and exit code 2.
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/mcb.h"
#include "corpus/corpus.h"
#include "minimpi/simulator.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "parse_number.h"
#include "record/chunk.h"
#include "runtime/storage.h"
#include "store/container_reader.h"
#include "store/container_store.h"
#include "support/oracle.h"
#include "tool/degraded.h"
#include "tool/frame.h"
#include "tool/options.h"
#include "tool/pipeline_inspect.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace {

using namespace cdc;

constexpr int kDemoRanks = 9;

tool::ToolOptions demo_options(compress::DeflateLevel level) {
  tool::ToolOptions options;
  options.chunk_target = 128;
  options.level = level;
  return options;
}

/// Runs the demo workload — MCB on a 3×3 rank grid, 120 particles per
/// rank — under `tool` (a recorder, a replayer or a probe around one).
void run_demo(minimpi::ToolHooks* tool, std::uint64_t noise_seed) {
  minimpi::Simulator::Config config;
  config.num_ranks = kDemoRanks;
  config.noise_seed = noise_seed;
  minimpi::Simulator sim(config, tool);
  apps::McbConfig mcb;
  mcb.grid_x = 3;
  mcb.grid_y = 3;
  mcb.particles_per_rank = 120;
  apps::run_mcb(sim, mcb);
}

/// Records the demo run (noise seed 4) into a sealed container at `file`,
/// the one recording every demo mode starts from; returns its chunk count.
std::uint64_t record_demo(const std::string& file,
                          compress::DeflateLevel level) {
  store::ContainerStore container(file);
  tool::Recorder recorder(kDemoRanks, &container, demo_options(level));
  run_demo(&recorder, 4);
  recorder.finalize();
  container.seal();
  return recorder.totals().chunks;
}

void inspect(const runtime::RecordStore& store) {
  std::uint64_t total_events = 0;
  std::uint64_t total_moves = 0;
  std::uint64_t total_values = 0;

  for (const runtime::StreamKey& key : store.keys()) {
    const std::vector<std::uint8_t> bytes = store.read(key);
    std::printf("stream rank=%d callsite=%u: %zu bytes\n", key.rank,
                key.callsite, bytes.size());
    support::ByteReader reader(bytes);
    std::size_t index = 0;
    while (auto frame = tool::read_frame(reader)) {
      if (frame->codec != static_cast<std::uint8_t>(
                              tool::RecordCodec::kCdcFull)) {
        std::printf("  chunk %zu: codec %u (%zu bytes payload) — not CDC, "
                    "skipping detail\n",
                    index, frame->codec, frame->payload.size());
        ++index;
        continue;
      }
      support::ByteReader payload(frame->payload);
      const auto chunk = record::read_chunk(payload);
      if (!chunk) {
        std::printf("  chunk %zu: CORRUPT\n", index);
        break;
      }
      std::printf(
          "  chunk %zu: N=%llu moves=%zu with_next=%zu unmatched=%zu "
          "senders=%zu values=%zu (payload %zu B)\n",
          index, static_cast<unsigned long long>(chunk->num_matched),
          chunk->moves.size(), chunk->with_next.size(),
          chunk->unmatched.size(), chunk->epoch.size(),
          chunk->value_count(), frame->payload.size());
      if (!chunk->epoch.empty()) {
        std::printf("           epoch line:");
        for (std::size_t i = 0; i < chunk->epoch.size() && i < 6; ++i)
          std::printf(" (%d,%llu)", chunk->epoch[i].sender,
                      static_cast<unsigned long long>(
                          chunk->epoch[i].clock));
        if (chunk->epoch.size() > 6) std::printf(" ...");
        std::printf("\n");
      }
      total_events += chunk->num_matched;
      total_moves += chunk->moves.size();
      total_values += chunk->value_count();
      ++index;
    }
  }

  std::printf("\ntotals: %llu receive events, %llu moves (%.1f%% permutated),"
              " %llu stored values, %s on storage (%.3f bytes/event)\n",
              static_cast<unsigned long long>(total_events),
              static_cast<unsigned long long>(total_moves),
              total_events > 0
                  ? 100.0 * static_cast<double>(total_moves) /
                        static_cast<double>(total_events)
                  : 0.0,
              static_cast<unsigned long long>(total_values),
              obs::format_bytes(
                  static_cast<double>(store.total_bytes())).c_str(),
              total_events > 0
                  ? static_cast<double>(store.total_bytes()) /
                        static_cast<double>(total_events)
                  : 0.0);
}

int inspect_container(const std::string& path) {
  const auto store = store::ContainerStore::open(path);
  std::printf("inspecting record container: %s\n\n", path.c_str());
  inspect(*store);
  return 0;
}

int verify_container(const std::string& path) {
  std::string error;
  const auto reader = store::ContainerReader::open(path, &error);
  if (reader == nullptr) {
    std::printf("FAILED: %s\n", error.c_str());
    return 1;
  }
  const store::VerifyReport report = reader->verify();
  std::printf("%s: %s\n", path.c_str(), report.summary().c_str());
  for (const std::string& problem : report.container_errors)
    std::printf("  container: %s\n", problem.c_str());
  for (const store::FrameDefect& defect : report.bad_frames) {
    if (defect.key_known)
      std::printf("  frame at offset %llu: stream (rank=%d, callsite=%u) "
                  "frame #%llu: %s\n",
                  static_cast<unsigned long long>(defect.offset),
                  defect.key.rank, defect.key.callsite,
                  static_cast<unsigned long long>(defect.seq),
                  defect.reason.c_str());
    else
      std::printf("  frame at offset %llu: (stream unidentifiable) %s\n",
                  static_cast<unsigned long long>(defect.offset),
                  defect.reason.c_str());
  }
  return report.ok ? 0 : 1;
}

int repack(const std::string& in_path, const std::string& out_path) {
  const store::RepackResult result =
      store::repack_container(in_path, out_path);
  if (!result.ok) {
    std::printf("repack FAILED: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("repacked %s -> %s: kept %llu frames, dropped %llu, "
              "%s -> %s\n",
              in_path.c_str(), out_path.c_str(),
              static_cast<unsigned long long>(result.frames_kept),
              static_cast<unsigned long long>(result.frames_dropped),
              obs::format_bytes(
                  static_cast<double>(result.bytes_in)).c_str(),
              obs::format_bytes(
                  static_cast<double>(result.bytes_out)).c_str());
  if (!result.scan_stop.empty())
    std::printf("  unscanned tail: %s\n", result.scan_stop.c_str());
  return verify_container(out_path);
}

/// `--gaps <container> [quarantine]`: degraded-replay coverage report —
/// human summary on stdout, machine-readable cdc_gap_report.json next to
/// the cwd. Exit 0 when the record is whole, 1 when degraded (so scripts
/// can branch), 2 on an unreadable file.
int gaps_container(const std::string& path,
                   const std::string& quarantine_path) {
  const tool::GapReport report = tool::inspect_gaps(path, quarantine_path);
  report.print(stdout);
  const std::string json = report.to_json();
  if (!obs::json_well_formed(json)) {
    std::printf("INTERNAL: gap report JSON is malformed\n");
    return 2;
  }
  if (!obs::JsonWriter::write_file("cdc_gap_report.json", json)) {
    std::printf("cannot write cdc_gap_report.json\n");
    return 2;
  }
  std::printf("gap report written to cdc_gap_report.json\n");
  return report.degraded() ? 1 : 0;
}

int emit_report(obs::PipelineReport& report,
                const std::string& report_path) {
  report.reconcile();
  report.print(stdout);
  const std::string json = report.to_json();
  if (!obs::json_well_formed(json)) {
    std::printf("INTERNAL: pipeline report JSON is malformed\n");
    return 1;
  }
  if (!obs::JsonWriter::write_file(report_path, json)) {
    std::printf("cannot write %s\n", report_path.c_str());
    return 1;
  }
  std::printf("\npipeline report written to %s\n", report_path.c_str());
  return report.reconciled ? 0 : 1;
}

/// `--stats <container>`: report on an existing container (no live
/// metrics, so only the container section and its internal checks).
int stats_container(const std::string& path) {
  obs::PipelineReport report;
  std::string error;
  if (!tool::fill_container_section(path, report, &error)) {
    std::printf("cannot open %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  return emit_report(report, "cdc_pipeline_report.json");
}

/// `--stats`: record an instrumented demo MCB run (metrics + trace ring,
/// into a container), then reconcile the live stage/byte accounting
/// against the container on disk.
int stats_demo(compress::DeflateLevel level) {
  std::printf("== instrumented demo MCB run (record + container, "
              "deflate level %.*s) ==\n\n",
              static_cast<int>(compress::to_string(level).size()),
              compress::to_string(level).data());
  const std::string file = "/tmp/cdc_record_stats.cdcc";
  obs::Registry::global().reset_values();
  obs::TraceBuffer ring(1 << 16);
  obs::install_trace(&ring);
  record_demo(file, level);
  // Replay the sealed container so the decode side of the report is live
  // too: read_frame's inflate stage fills record.stage.inflate.* and the
  // report prints decode MB/s next to the encoder's deflate MB/s.
  {
    const auto replay_store = store::ContainerStore::open(file);
    tool::Replayer replayer(kDemoRanks, replay_store.get(),
                            demo_options(level));
    run_demo(&replayer, 7);  // replay pins the order under different noise
    if (!replayer.fully_replayed()) {
      std::printf("INTERNAL: demo replay left unconsumed record\n");
      return 1;
    }
  }
  obs::install_trace(nullptr);  // quiesce before export

  // With metrics off (compiled out, or CDC_OBS=0) the run recorded none,
  // so the report is container-only.
  obs::PipelineReport report;
  if (obs::enabled()) report.metrics = obs::Registry::global().snapshot();
  std::string error;
  if (!tool::fill_container_section(file, report, &error)) {
    std::printf("cannot re-open %s: %s\n", file.c_str(), error.c_str());
    return 1;
  }

  const std::string trace =
      ring.export_chrome_json({.virtual_time = false, .include_args = true});
  if (!obs::json_well_formed(trace)) {
    std::printf("INTERNAL: trace JSON is malformed\n");
    return 1;
  }
  if (!obs::JsonWriter::write_file("cdc_trace.json", trace)) {
    std::printf("cannot write cdc_trace.json\n");
    return 1;
  }
  std::printf("trace: %zu events (%llu overwritten) -> cdc_trace.json "
              "(load in Perfetto / chrome://tracing)\n\n",
              ring.size(), static_cast<unsigned long long>(ring.dropped()));
  return emit_report(report, "cdc_pipeline_report.json");
}

/// `--window LO:HI`: windowed-replay demo. Records the demo MCB run into
/// an epoch-indexed container, full-replays it, then replays only epochs
/// [LO, HI) — every stream's bytes come from the epoch-index seek, so the
/// windowed run reads O(window) bytes, not O(record). Each stream's
/// verified window slice is oracle-checked event-for-event against the
/// same interval of the full replay. Exit 0 when every slice matches.
int window_demo(compress::DeflateLevel level, std::uint64_t lo,
                std::uint64_t hi) {
  std::printf("== windowed replay of epochs [%llu, %llu) of a demo MCB "
              "run ==\n\n",
              static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi));
  const std::string file = "/tmp/cdc_record_window.cdcc";
  const tool::ToolOptions options = demo_options(level);
  record_demo(file, level);

  const auto store = store::ContainerStore::open(file);
  if (store->reader() == nullptr || !store->reader()->epoch_index_ok()) {
    std::printf("FAILED: sealed container has no usable epoch index\n");
    return 1;
  }

  // Full replay: the reference trace the window slices are checked against.
  tool::Replayer full(kDemoRanks, store.get(), options);
  support::OrderProbe full_probe(&full);
  run_demo(&full_probe, 7);
  if (!full.fully_replayed()) {
    std::printf("FAILED: full replay left unconsumed record\n");
    return 1;
  }
  std::uint64_t epochs = 0;
  for (const auto& [key, stats] : full.stream_totals())
    epochs = std::max(epochs, stats.chunks);
  if (lo >= epochs || hi <= lo) {
    std::printf("window [%llu, %llu) is empty or past the record "
                "(deepest stream has %llu epochs)\n",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(epochs));
    return 2;
  }
  if (hi > epochs) hi = epochs;

  // How much of the record the seek actually touches, and what it inflates
  // to — frame by frame, the way replay decodes.
  std::uint64_t window_stored = 0;
  std::uint64_t window_raw = 0;
  for (const runtime::StreamKey& key : store->keys()) {
    const std::vector<std::uint8_t> bytes = store->read_prefix(key, hi);
    window_stored += bytes.size();
    support::ByteReader reader(bytes);
    while (auto frame = tool::read_frame(reader))
      window_raw += frame->payload.size();
  }
  const std::uint64_t total_stored = store->total_bytes();
  std::printf("record  : %zu streams, %llu epochs deep, %s framed\n",
              store->keys().size(),
              static_cast<unsigned long long>(epochs),
              obs::format_bytes(
                  static_cast<double>(total_stored)).c_str());
  std::printf("seek    : epochs [0, %llu) cover %s (%.1f%% of the record) "
              "-> %s raw\n",
              static_cast<unsigned long long>(hi),
              obs::format_bytes(
                  static_cast<double>(window_stored)).c_str(),
              total_stored > 0 ? 100.0 * static_cast<double>(window_stored) /
                                     static_cast<double>(total_stored)
                               : 0.0,
              obs::format_bytes(static_cast<double>(window_raw)).c_str());

  // Windowed replay under yet another schedule; the stream bytes must come
  // from the epoch-index seek, so the fallback counter must not move.
  obs::Counter& fallbacks = obs::counter("store.container.epoch_fallbacks");
  const std::uint64_t fallbacks_before = fallbacks.value();
  tool::Replayer window(kDemoRanks, store.get(), options);
  window.replay_window(lo, hi);
  support::OrderProbe window_probe(&window);
  run_demo(&window_probe, 11);
  if (fallbacks.value() != fallbacks_before) {
    std::printf("FAILED: windowed replay fell back to a sequential read\n");
    return 1;
  }

  // Each stream's verified [begin, end) against the same events of the
  // full replay.
  std::map<runtime::StreamKey, support::EventSpan> slices;
  for (const auto& [key, slice] : window.window_slices())
    slices[key] = {slice.begin, slice.end};
  const support::OracleReport oracle =
      support::check_slices(full_probe.trace(), window_probe.trace(), slices);
  if (!oracle.ok) {
    std::printf("FAILED: %s\n", oracle.summary().c_str());
    return 1;
  }
  std::printf("verified: %llu events across %zu stream slices match the "
              "full replay\n",
              static_cast<unsigned long long>(oracle.events_compared),
              oracle.streams_compared);
  std::printf("\nwindow container left at %s\n", file.c_str());
  return 0;
}

/// `--corpus <file>`: corpus container stats — families, members, dedup
/// ratio and per-encoding stream counts.
/// Exit 0 for a healthy corpus, 1 when salvage left unreadable members,
/// 2 when the file cannot be opened as a corpus.
int corpus_stats(const std::string& path) {
  std::string error;
  const auto reader = corpus::CorpusReader::open(path, &error);
  if (reader == nullptr) {
    std::printf("cannot open corpus %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  const corpus::CorpusStats& stats = reader->stats();
  std::printf("corpus %s: %llu members in %llu families, %llu streams\n",
              path.c_str(), static_cast<unsigned long long>(stats.members),
              static_cast<unsigned long long>(stats.families),
              static_cast<unsigned long long>(stats.streams));
  std::printf("  %s raw -> %s stored in %s on disk (dedup %.2fx)\n",
              obs::format_bytes(
                  static_cast<double>(stats.raw_bytes)).c_str(),
              obs::format_bytes(
                  static_cast<double>(stats.stored_bytes)).c_str(),
              obs::format_bytes(
                  static_cast<double>(reader->file_bytes())).c_str(),
              stats.dedup_ratio());
  std::printf("  streams by encoding:");
  const corpus::MemberEncoding encodings[] = {
      corpus::MemberEncoding::kDeltaCorrecting,
      corpus::MemberEncoding::kSelfGzip, corpus::MemberEncoding::kRaw};
  for (const auto encoding : encodings) {
    const std::uint64_t n =
        stats.by_encoding[static_cast<std::size_t>(encoding)];
    if (n > 0)
      std::printf(" %.*s=%llu",
                  static_cast<int>(corpus::to_string(encoding).size()),
                  corpus::to_string(encoding).data(),
                  static_cast<unsigned long long>(n));
  }
  std::printf("\n");

  int unreadable = 0;
  for (const corpus::CorpusReader::Member& member : reader->members()) {
    std::printf("  member %3u %s%s family=%s%s%s\n", member.ordinal,
                member.name.empty() ? "(unnamed)" : member.name.c_str(),
                member.is_reference ? " [reference]" : "",
                member.family.c_str(),
                member.readable ? "" : " UNREADABLE: ",
                member.readable ? "" : member.damage.c_str());
    if (!member.readable) ++unreadable;
  }
  if (unreadable > 0)
    std::printf("  %d member(s) unreadable after salvage\n", unreadable);
  return unreadable > 0 ? 1 : 0;
}

int demo(compress::DeflateLevel level) {
  std::printf("== recording a demo MCB run into a record container "
              "(deflate level %.*s) ==\n\n",
              static_cast<int>(compress::to_string(level).size()),
              compress::to_string(level).data());
  const std::string file = "/tmp/cdc_record_demo.cdcc";
  const std::uint64_t chunks = record_demo(file, level);
  const auto store = store::ContainerStore::open(file);
  inspect(*store);
  std::printf("\nrecorded %llu chunks, %s stored\n",
              static_cast<unsigned long long>(chunks),
              obs::format_bytes(static_cast<double>(store->total_bytes()))
                  .c_str());
  std::printf("\nrecord container left at %s; verifying it:\n", file.c_str());
  return verify_container(file);
}

int usage(const char* prog, int code) {
  std::printf(
      "usage: %s [mode] [--level <stored|fast|default|best>]\n"
      "modes:\n"
      "  (none)                 record and dissect a demo MCB run\n"
      "  --container <file>     inspect a record container\n"
      "  --verify <file>        CRC-verify a container\n"
      "  --repack <in> <out>    salvage/compact a container\n"
      "  --gaps <file> [quarantine]\n"
      "                         degraded-replay gap report (+ JSON)\n"
      "  --stats [container]    pipeline report (demo run, or of a file)\n"
      "  --window <LO:HI>       windowed-replay demo: replay only epochs\n"
      "                         [LO, HI) via the epoch-index seek and\n"
      "                         oracle-check the slices vs a full replay\n"
      "                         (two whole unsigned decimals, LO < HI)\n"
      "  --corpus <file>        corpus stats: families, dedup ratio,\n"
      "                         encoding mix, member health\n"
      "  --help                 this text\n"
      "--level applies to the recording modes (demo and bare --stats).\n",
      prog);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  // Pull an optional `--level <name>` pair out of argv (it applies to the
  // recording modes); everything else keeps its relative order for the
  // positional dispatch below.
  cdc::compress::DeflateLevel level = cdc::compress::DeflateLevel::kDefault;
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--level") == 0) {
      if (i + 1 >= argc) {
        std::printf("--level needs a value (stored|fast|default|best)\n");
        return 2;
      }
      const auto parsed =
          cdc::compress::deflate_level_from_name(argv[i + 1]);
      if (!parsed) {
        std::printf("unknown --level '%s' (stored|fast|default|best)\n",
                    argv[i + 1]);
        return 2;
      }
      level = *parsed;
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
    } else {
      ++i;
    }
  }
  // Every flag must be one the dispatch below understands: an unknown
  // flag is an error, not something to silently ignore.
  static const char* const known_flags[] = {
      "--container", "--verify", "--repack", "--gaps",
      "--stats",     "--corpus", "--window", "--help"};
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') continue;
    bool known = false;
    for (const char* flag : known_flags)
      known = known || std::strcmp(argv[i], flag) == 0;
    if (!known) {
      std::printf("unknown flag '%s'\n", argv[i]);
      return usage(argv[0], 2);
    }
  }
  const auto is = [&](int i, const char* flag) {
    return i < argc && std::strcmp(argv[i], flag) == 0;
  };
  if (is(1, "--help")) return usage(argv[0], 0);
  if (is(1, "--container") && argc == 3) return inspect_container(argv[2]);
  if (is(1, "--verify") && argc == 3) return verify_container(argv[2]);
  if (is(1, "--repack") && argc == 4) return repack(argv[2], argv[3]);
  if (is(1, "--gaps") && (argc == 3 || argc == 4))
    return gaps_container(argv[2], argc == 4 ? argv[3] : "");
  if (is(1, "--stats") && argc == 2) return stats_demo(level);
  if (is(1, "--stats") && argc == 3) return stats_container(argv[2]);
  if (is(1, "--corpus") && argc == 3) return corpus_stats(argv[2]);
  if (is(1, "--window") && argc == 3) {
    const std::string spec = argv[2];
    const std::size_t colon = spec.find(':');
    unsigned long long lo = 0;
    unsigned long long hi = 0;
    if (colon == std::string::npos ||
        !cdc::cli::parse_number(spec.substr(0, colon).c_str(), 0, ULLONG_MAX,
                                &lo) ||
        !cdc::cli::parse_number(spec.c_str() + colon + 1, 0, ULLONG_MAX,
                                &hi)) {
      std::printf("--window needs LO:HI, two whole unsigned decimals "
                  "(e.g. --window 2:5)\n");
      return 2;
    }
    // A half-open window needs LO < HI: 60:40 (reversed) and 5:5 (empty)
    // are operator errors, not runs with nothing to do.
    if (lo >= hi) {
      std::printf("--window needs LO < HI, got %llu:%llu\n", lo, hi);
      return 2;
    }
    return window_demo(level, lo, hi);
  }
  if (argc > 1) return usage(argv[0], 2);
  return demo(level);
}
