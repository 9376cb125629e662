// rrbench — what recording and replaying a seeded run costs over the same
// run without the tool.
//
// For one workload and seed rrbench repeats a round of passes over the
// same application run until --seconds have been measured:
//   plain  — the application on a minimpi::Simulator, no tool attached;
//   record — a tool::Recorder (default ToolOptions, inline frame sink)
//            writing a store::ContainerStore, through finalize and seal;
//   replay — a tool::Replayer over ContainerStore::open of that container,
//            under a network-noise seed different from the record's.
// Every round checks that replay reproduced the recording (order digest,
// fully_replayed, bit-identical application result) and that the record is
// deterministic (container bytes, chunks, events, simulator events).
//
// --trace 0 prints the end-to-end metrics, measured untraced; their times
// are lower quartiles over the rounds, brought to a fixed host speed by a
// reference pass timed in every round (see "Host speed"). --trace 1
// adds traced record and replay passes, whose layer decorators (layers.h)
// split the cost into per-layer self times, plus an offline decode pass;
// it prints the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/jacobi.h"
#include "apps/mcb.h"
#include "layers.h"
#include "minimpi/simulator.h"
#include "record/chunk.h"
#include "store/container_store.h"
#include "support/binary.h"
#include "tool/frame.h"
#include "tool/frame_sink.h"
#include "tool/recorder.h"
#include "tool/replayer.h"
#include "trace.h"

namespace {

using namespace cdc;
using rrbench::trace::Count;
using rrbench::trace::ScopedSpan;
using rrbench::trace::Span;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  bool jacobi;   ///< Jacobi halo exchange; MCB otherwise
  int ranks;
  int load;      ///< MCB particles per rank, or Jacobi iterations
  bool parallel; ///< plain and record on the parallel executor
};

// mcb-wide: 1,538 streams, each under one chunk — per-event hook state over
//   many stream keys, and DEFLATE's fixed per-call cost at finalize.
// mcb-deep: 48 long streams at the paper's 4,000 particles per rank — most
//   chunks flush full during the run under epoch enforcement, each followed
//   by a checkpoint sync, so the codec and per-byte DEFLATE cost show.
// jacobi-par: hidden-deterministic halo exchange on the parallel executor,
//   flushed through the recorder's staged on_window path.
constexpr Workload kWorkloads[] = {
    {"mcb-wide", false, 768, 40, false},
    {"mcb-deep", false, 16, 4000, false},
    {"jacobi-par", true, 256, 100, true},
};

// Same shapes at a size that runs in well under a second (--scale tiny).
constexpr Workload kTinyWorkloads[] = {
    {"mcb-wide", false, 16, 20, false},
    {"mcb-deep", false, 4, 600, false},
    {"jacobi-par", true, 16, 20, true},
};

std::pair<int, int> grid_for(int ranks) {
  int best = 1;
  for (int x = 1; x * x <= ranks; ++x)
    if (ranks % x == 0) best = x;
  return {ranks / best, best};
}

/// The application's order-sensitive result, as bits, plus its work count.
struct AppOutcome {
  std::uint64_t result_bits = 0;
  std::uint64_t work = 0;

  friend bool operator==(const AppOutcome&, const AppOutcome&) = default;
};

AppOutcome run_app(const Workload& w, minimpi::Simulator& sim) {
  const auto [gx, gy] = grid_for(w.ranks);
  if (w.jacobi) {
    apps::JacobiConfig config;
    config.grid_x = gx;
    config.grid_y = gy;
    config.iterations = w.load;
    const apps::JacobiResult r = apps::run_jacobi(sim, config);
    return {std::bit_cast<std::uint64_t>(r.residual), r.iterations};
  }
  apps::McbConfig config;
  config.grid_x = gx;
  config.grid_y = gy;
  config.particles_per_rank = w.load;
  const apps::McbResult r = apps::run_mcb(sim, config);
  return {std::bit_cast<std::uint64_t>(r.global_tally), r.total_tracks};
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

/// Worker count of the parallel passes: half the cores, at least two.
int parallel_workers() { return std::max(2, nproc() / 2); }

minimpi::Simulator::Config sim_config(const Workload& w,
                                      std::uint64_t noise_seed, int workers) {
  minimpi::Simulator::Config config;
  config.num_ranks = w.ranks;
  config.noise_seed = noise_seed;
  config.workers = workers;
  return config;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- Memory ----------------------------------------------------------------

/// Resets the kernel's peak-RSS mark to the current RSS, after returning
/// freed heap to the system, so the next pass's peak is its own. Only the
/// untimed warm-up round does this: the pass after it pays page faults for
/// its whole heap again, a cost that varies with the host and that the
/// other passes of a round, running on a warm heap, would not share.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::uint64_t file_fnv1a(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    h ^= static_cast<std::uint8_t>(*it);
    h *= 0x100000001b3ull;
  }
  return h;
}

// --- Passes ----------------------------------------------------------------

struct Pass {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  AppOutcome app;
  minimpi::Simulator::Stats stats;
  std::uint64_t events = 0;  ///< recorded / replayed events, matched+unmatched
  std::uint64_t chunks = 0;
  std::uint64_t digest = 0;
  bool fully_replayed = false;
  std::uint64_t container_bytes = 0;
  std::uint64_t container_hash = 0;
  rrbench::trace::Totals trace;  ///< traced passes only
};

Pass run_plain(const Workload& w, std::uint64_t seed, int workers) {
  Pass pass;
  const auto t0 = Clock::now();
  minimpi::Simulator sim(sim_config(w, seed, workers));
  pass.setup_s = since(t0);
  pass.app = run_app(w, sim);
  pass.wall_s = since(t0);
  pass.stats = sim.stats();
  return pass;
}

Pass run_record(const Workload& w, std::uint64_t seed, int workers,
                const std::string& path, bool traced, bool measure_rss) {
  Pass pass;
  if (measure_rss) reset_peak_rss();
  rrbench::trace::reset();
  const auto t0 = Clock::now();
  {
    store::ContainerStore container(path);
    runtime::RecordStore* store = &container;
    std::unique_ptr<rrbench::TracedStore> traced_store;
    std::unique_ptr<tool::InlineFrameSink> inline_sink;
    std::unique_ptr<rrbench::TracedSink> traced_sink;
    if (traced) {
      traced_store = std::make_unique<rrbench::TracedStore>(container);
      store = traced_store.get();
      inline_sink = std::make_unique<tool::InlineFrameSink>(store);
      traced_sink = std::make_unique<rrbench::TracedSink>(*inline_sink);
    }
    tool::Recorder recorder(w.ranks, store, tool::ToolOptions{},
                            traced_sink.get());
    std::unique_ptr<rrbench::TracedHooks> hooks;
    if (traced)
      hooks = std::make_unique<rrbench::TracedHooks>(recorder,
                                                     rrbench::kRecordHooks);
    minimpi::Simulator sim(
        sim_config(w, seed, workers),
        hooks ? static_cast<minimpi::ToolHooks*>(hooks.get()) : &recorder);
    pass.setup_s = since(t0);
    pass.app = run_app(w, sim);
    {
      ScopedSpan span(Span::kRecordFinalize, traced);
      recorder.finalize();
    }
    {
      ScopedSpan span(Span::kStoreSeal, traced);
      container.seal();
    }
    pass.wall_s = since(t0);
    if (measure_rss) pass.peak_rss_mb = peak_rss_mb();
    pass.stats = sim.stats();
    const tool::Recorder::Totals totals = recorder.totals();
    pass.events = totals.matched_events + totals.unmatched_events;
    pass.chunks = totals.chunks;
    pass.digest = recorder.order_digest();
  }
  if (traced) pass.trace = rrbench::trace::collect();
  pass.container_bytes = std::filesystem::file_size(path);
  pass.container_hash = file_fnv1a(path);
  return pass;
}

Pass run_replay(const Workload& w, std::uint64_t seed, const std::string& path,
                bool traced, bool measure_rss) {
  Pass pass;
  if (measure_rss) reset_peak_rss();
  rrbench::trace::reset();
  const auto t0 = Clock::now();
  std::unique_ptr<store::ContainerStore> container;
  {
    ScopedSpan span(Span::kStoreOpen, traced);
    container = store::ContainerStore::open(path);
  }
  runtime::RecordStore* store = container.get();
  std::unique_ptr<rrbench::TracedStore> traced_store;
  if (traced) {
    traced_store = std::make_unique<rrbench::TracedStore>(*container);
    store = traced_store.get();
  }
  tool::Replayer replayer(w.ranks, store, tool::ToolOptions{});
  std::unique_ptr<rrbench::TracedHooks> hooks;
  if (traced)
    hooks = std::make_unique<rrbench::TracedHooks>(replayer,
                                                   rrbench::kReplayHooks);
  // The Replayer runs on the sequential executor only.
  minimpi::Simulator sim(
      sim_config(w, seed, 0),
      hooks ? static_cast<minimpi::ToolHooks*>(hooks.get()) : &replayer);
  pass.setup_s = since(t0);
  pass.app = run_app(w, sim);
  pass.wall_s = since(t0);
  if (measure_rss) pass.peak_rss_mb = peak_rss_mb();
  pass.stats = sim.stats();
  const tool::Replayer::Totals totals = replayer.totals();
  pass.events = totals.replayed_events + totals.replayed_unmatched;
  pass.chunks = totals.chunks;
  pass.digest = replayer.order_digest();
  pass.fully_replayed = replayer.fully_replayed();
  if (traced) pass.trace = rrbench::trace::collect();
  return pass;
}

/// Times set-up alone, without simulating: container create, Recorder and
/// Simulator construction for record, plus ContainerStore::open (which
/// CRC-checks every frame), Replayer and Simulator construction for replay.
/// Destruction is not timed.
double setup_sample(const Workload& w, std::uint64_t record_seed,
                    std::uint64_t replay_seed, int workers,
                    const std::string& record_path,
                    const std::string& scratch_path) {
  double record_s = 0.0;
  double replay_s = 0.0;
  {
    const auto t0 = Clock::now();
    store::ContainerStore container(scratch_path);
    tool::Recorder recorder(w.ranks, &container, tool::ToolOptions{});
    minimpi::Simulator sim(sim_config(w, record_seed, workers), &recorder);
    record_s = since(t0);
  }
  {
    const auto t0 = Clock::now();
    const auto container = store::ContainerStore::open(record_path);
    tool::Replayer replayer(w.ranks, container.get(), tool::ToolOptions{});
    minimpi::Simulator sim(sim_config(w, replay_seed, 0), &replayer);
    replay_s = since(t0);
  }
  return record_s + replay_s;
}

/// Decodes every frame of a sealed container outside any run: the inflate
/// and chunk-decode work replay does, timed in isolation.
struct Decode {
  double inflate_s = 0.0;
  double chunk_decode_s = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t inflated_bytes = 0;
  std::uint64_t observed = 0;  ///< uses the decoded order, so it is computed
  bool ok = true;
};

Decode decode_offline(const std::string& path) {
  Decode out;
  const auto container = store::ContainerStore::open(path);
  for (const runtime::StreamKey& key : container->keys()) {
    const std::vector<std::uint8_t> bytes = container->read(key);
    support::ByteReader reader(bytes);
    while (!reader.exhausted()) {
      const auto t_frame = Clock::now();
      std::optional<tool::Frame> frame = tool::read_frame(reader);
      out.inflate_s += since(t_frame);
      if (!frame) {
        out.ok = false;
        return out;
      }
      const auto t_chunk = Clock::now();
      support::ByteReader payload(frame->payload);
      const std::optional<record::CdcChunk> chunk =
          record::read_chunk(payload);
      if (!chunk) {
        out.ok = false;
        return out;
      }
      out.observed += record::observed_reference_indices(*chunk).size();
      out.chunk_decode_s += since(t_chunk);
      ++out.frames;
      out.inflated_bytes += frame->payload.size();
    }
  }
  return out;
}

// --- Host speed ------------------------------------------------------------

// The host is shared, and for minutes at a time it runs every pass 10-40%
// slower than in a quiet minute, even the fastest of many, so no statistic
// over one run's passes sees past it. Each round therefore also times a
// fixed reference pass that does not change with the code under test, and
// the end-to-end times are reported at the host speed at which that pass
// takes kReferenceNominalS: measured time x nominal / reference time, each
// a lower quartile over the run. A change to the program moves its times
// and not the reference's.

/// About the reference pass's lower quartile on the 4-vCPU Xeon VM the
/// benchmark was tuned on, so scaled times read close to seconds there.
constexpr double kReferenceNominalS = 0.2;
constexpr int kReferenceRanks = 768;
constexpr int kReferenceSteps = 400000;

volatile std::uint64_t reference_sink = 0;

/// A discrete-event loop over the standard library only — a binary heap
/// of timed events, per-rank queues and a hash-map tally, as on the
/// simulator's hot path — so host slowdowns hit it as they hit the passes.
double reference_pass() {
  const auto t0 = Clock::now();
  using Event = std::pair<double, int>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::unordered_map<std::uint64_t, std::uint64_t> tally;
  std::vector<std::vector<std::uint64_t>> queues(kReferenceRanks);
  std::uint64_t x = 0;
  for (int r = 0; r < kReferenceRanks; ++r)
    events.push({static_cast<double>(splitmix64(++x) % 1000), r});
  std::uint64_t acc = 0;
  for (int step = 0; step < kReferenceSteps; ++step) {
    const auto [t, r] = events.top();
    events.pop();
    const std::uint64_t h = splitmix64(++x);
    const int dst = static_cast<int>(h % kReferenceRanks);
    queues[dst].push_back(h);
    std::vector<std::uint64_t>& own = queues[r];
    if (own.size() > 8) {
      acc += own.front();
      own.erase(own.begin());
    }
    ++tally[(static_cast<std::uint64_t>(r) << 32) | (h & 0xffff)];
    events.push({t + static_cast<double>(h >> 54), dst});
  }
  reference_sink = acc + tally.size();
  return since(t0);
}

// --- Rounds and checks -----------------------------------------------------

struct Seeds {
  std::uint64_t record;  ///< plain and record passes
  std::uint64_t replay;  ///< replay passes: another network condition
};

struct Round {
  Pass plain;
  Pass record;
  Pass replay;
  Pass plain_seq;  ///< replay's baseline when plain runs in parallel
  std::optional<Pass> record_traced;
  std::optional<Pass> replay_traced;
  std::optional<Decode> decode;
  /// Set-up times: the record and replay passes' own, plus setup_sample()s.
  std::vector<double> setup_s;
  /// reference_pass() times, one before the passes and one after.
  std::vector<double> reference_s;

  [[nodiscard]] const Pass& replay_baseline(const Workload& w) const {
    return w.parallel ? plain_seq : plain;
  }
};

// Set-up takes milliseconds, so each round samples it several times.
constexpr int kSetupSamples = 8;

Round run_round(const Workload& w, const Seeds& seeds,
                const std::string& path, const std::string& scratch_path,
                bool traced, bool warmup) {
  const int workers = w.parallel ? parallel_workers() : 0;
  Round round;
  round.reference_s.push_back(reference_pass());
  round.plain = run_plain(w, seeds.record, workers);
  round.record = run_record(w, seeds.record, workers, path, false, warmup);
  if (traced)
    round.record_traced =
        run_record(w, seeds.record, workers, path, true, false);
  if (w.parallel) round.plain_seq = run_plain(w, seeds.record, 0);
  round.replay = run_replay(w, seeds.replay, path, false, warmup);
  if (traced) {
    round.replay_traced = run_replay(w, seeds.replay, path, true, false);
    round.decode = decode_offline(path);
  }
  round.reference_s.push_back(reference_pass());
  round.setup_s.push_back(round.record.setup_s + round.replay.setup_s);
  for (int i = 0; i < kSetupSamples; ++i)
    round.setup_s.push_back(setup_sample(w, seeds.record, seeds.replay,
                                         workers, path, scratch_path));
  return round;
}

class Checker {
 public:
  /// Records one check; a failed check fails the whole run.
  void expect(bool ok, const char* what, int round) {
    if (ok) return;
    correct_ = false;
    std::printf("CHECK FAILED (round %d): %s\n", round, what);
  }

  /// Counts one replay pass and whether it reproduced the recording.
  void replay(const Pass& replay, const Pass& record, int round) {
    ++replays_;
    const bool digest_ok = replay.digest == record.digest;
    const bool complete = replay.fully_replayed;
    const bool result_ok = replay.app == record.app;
    expect(digest_ok, "replay order digest differs from the recording", round);
    expect(complete, "replay did not consume the whole record", round);
    expect(result_ok, "replay result differs from the recording", round);
    expect(replay.events == record.events,
           "replay surfaced a different number of events", round);
    if (!(digest_ok && complete && result_ok)) ++mismatches_;
  }

  /// Determinism guard: a record pass must match the reference record
  /// exactly; a difference means a pass perturbed the schedule.
  void same_record(const Pass& a, const Pass& ref, int round) {
    expect(a.container_hash == ref.container_hash &&
               a.container_bytes == ref.container_bytes,
           "container bytes differ between record passes", round);
    expect(a.chunks == ref.chunks, "record chunk count differs", round);
    expect(a.events == ref.events, "recorded event count differs", round);
    expect(a.stats.scheduler_events == ref.stats.scheduler_events,
           "simulator event count differs between record passes", round);
    expect(a.digest == ref.digest, "record order digest differs", round);
    expect(a.app == ref.app, "record result differs", round);
  }

  /// Decorator counts against the simulator's own tallies.
  void hook_counts(const Pass& p, Count delivered, Span send, int round) {
    expect(p.trace[send].calls == p.stats.messages_sent,
           "traced on_send calls != Simulator messages_sent", round);
    expect(p.trace[delivered] == p.stats.receive_events_delivered,
           "traced delivered completions != receive_events_delivered",
           round);
  }

  void check_round(const Workload& w, const Round& r, const Round& ref,
                   int round) {
    expect(r.plain.app == r.record.app,
           "plain and record results are not bit-identical", round);
    expect(r.plain.stats.scheduler_events == r.record.stats.scheduler_events,
           "plain and record simulator event counts differ", round);
    expect(r.plain.stats.scheduler_events == ref.plain.stats.scheduler_events,
           "plain simulator event count differs between rounds", round);
    if (w.parallel)
      expect(r.plain_seq.app == r.record.app,
             "sequential and parallel plain results differ", round);
    same_record(r.record, ref.record, round);
    replay(r.replay, r.record, round);
    if (r.record_traced) {
      same_record(*r.record_traced, ref.record, round);
      hook_counts(*r.record_traced, Count::kRecordDelivered,
                  Span::kRecordOnSend, round);
    }
    if (r.replay_traced) {
      replay(*r.replay_traced, r.record, round);
      hook_counts(*r.replay_traced, Count::kReplayDelivered,
                  Span::kReplayOnSend, round);
    }
    if (r.decode) {
      expect(r.decode->ok, "offline decode hit a corrupt frame", round);
      expect(r.decode->frames == r.record.chunks,
             "offline decode frame count != recorded chunks", round);
    }
  }

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::uint64_t replays() const { return replays_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }

 private:
  bool correct_ = true;
  std::uint64_t replays_ = 0;
  std::uint64_t mismatches_ = 0;
};

// --- Metrics ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Lower quartile, interpolated between order statistics. Interference
/// from other work on a shared host only ever adds time, and it comes in
/// bursts that slow CPU time as much as wall time, so the lower quartile
/// of many rounds is a steadier estimate of a pass's own cost than their
/// median; unlike the fastest round, it does not hang on one lucky sample.
double lower_quartile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double pos = 0.25 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

template <typename F>
double lower_quartile_of(const std::vector<Round>& rounds, F f) {
  std::vector<double> values;
  values.reserve(rounds.size());
  for (const Round& r : rounds) values.push_back(f(r));
  return lower_quartile(std::move(values));
}

/// The run's reference_pass() time, and the factor that brings measured
/// times to the nominal host speed.
struct HostSpeed {
  double reference_s;
  double scale;
};

HostSpeed host_speed(const std::vector<Round>& rounds) {
  std::vector<double> reference;
  for (const Round& r : rounds)
    reference.insert(reference.end(), r.reference_s.begin(),
                     r.reference_s.end());
  const double reference_s = lower_quartile(std::move(reference));
  return {reference_s, kReferenceNominalS / reference_s};
}

template <typename F>
double median_of(const std::vector<Round>& rounds, F f) {
  std::vector<double> values;
  values.reserve(rounds.size());
  for (const Round& r : rounds) values.push_back(f(r));
  return median(values);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void end_to_end_metrics(const Workload& w, const Round& warmup,
                        const std::vector<Round>& rounds,
                        const HostSpeed& speed, const Checker& checker,
                        std::vector<Metric>& out) {
  const Round& first = rounds.front();
  const double events = static_cast<double>(first.record.events);
  const auto scaled = [&](auto f) {
    return speed.scale * lower_quartile_of(rounds, f);
  };
  const double plain_s = scaled([](const Round& r) { return r.plain.wall_s; });
  const double record_s =
      scaled([](const Round& r) { return r.record.wall_s; });
  const double replay_s =
      scaled([](const Round& r) { return r.replay.wall_s; });
  const double replay_baseline_s =
      scaled([&w](const Round& r) { return r.replay_baseline(w).wall_s; });
  out.push_back({"plain_s", plain_s, "s"});
  out.push_back({"record_s", record_s, "s"});
  out.push_back({"replay_s", replay_s, "s"});
  out.push_back({"record_overhead_us_per_event",
                 (record_s - plain_s) / events * 1e6, "us/event"});
  out.push_back({"replay_overhead_us_per_event",
                 (replay_s - replay_baseline_s) /
                     static_cast<double>(first.replay.events) * 1e6,
                 "us/event"});
  out.push_back({"record_bytes_per_event",
                 static_cast<double>(first.record.container_bytes) / events,
                 "B/event"});
  std::vector<double> setup;
  for (const Round& r : rounds)
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
  out.push_back({"setup_s", speed.scale * median(setup), "s"});
  out.push_back({"peak_rss_mb",
                 std::max(warmup.record.peak_rss_mb,
                          warmup.replay.peak_rss_mb),
                 "MB"});
  out.push_back({"replay_match_rate",
                 checker.replays() == 0
                     ? 0.0
                     : static_cast<double>(checker.replays() -
                                           checker.mismatches()) /
                           static_cast<double>(checker.replays()),
                 "share"});
}

void per_layer_metrics(const Workload& w, const std::vector<Round>& rounds,
                       std::vector<Metric>& out) {
  const Round& first = rounds.front();
  const rrbench::trace::Totals& rec = first.record_traced->trace;
  const rrbench::trace::Totals& rep = first.replay_traced->trace;
  const double events = static_cast<double>(first.record.events);
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  // Span times vary run to run: report the median over rounds. Counts are
  // deterministic (the checker holds them equal), so the first round's.
  const auto rec_self = [&](Span s) {
    return median_of(rounds, [s](const Round& r) {
      return r.record_traced->trace.self_s(s);
    });
  };
  const auto rep_self = [&](Span s) {
    return median_of(rounds, [s](const Round& r) {
      return r.replay_traced->trace.self_s(s);
    });
  };

  // minimpi: the simulator core, from the untraced plain pass.
  const minimpi::Simulator::Stats& sim = first.plain.stats;
  out.push_back({"minimpi.events", count(sim.scheduler_events), "count"});
  out.push_back({"minimpi.events_per_s",
                 median_of(rounds,
                           [](const Round& r) {
                             return static_cast<double>(
                                        r.plain.stats.scheduler_events) /
                                    r.plain.wall_s;
                           }),
                 "1/s"});
  out.push_back({"minimpi.mf_calls", count(sim.mf_calls), "count"});
  out.push_back({"minimpi.messages", count(sim.messages_sent), "count"});
  out.push_back({"minimpi.max_queue_depth", count(sim.max_queue_depth),
                 "count"});

  // tool: record-side hooks.
  const struct {
    const char* name;
    Span span;
  } rec_hooks[] = {{"tool.record.on_send", Span::kRecordOnSend},
                   {"tool.record.select", Span::kRecordSelect},
                   {"tool.record.on_unmatched_test",
                    Span::kRecordUnmatchedTest},
                   {"tool.record.on_window", Span::kRecordOnWindow}};
  for (const auto& h : rec_hooks) {
    out.push_back({std::string(h.name) + ".calls", count(rec[h.span].calls),
                   "count"});
    out.push_back({std::string(h.name) + ".self_s", rec_self(h.span), "s"});
  }
  out.push_back({"tool.record.on_deliver.calls",
                 count(rec[Span::kRecordDeliverBuffer].calls +
                       rec[Span::kRecordDeliverFlush].calls),
                 "count"});
  out.push_back({"tool.record.on_deliver.buffer_self_s",
                 rec_self(Span::kRecordDeliverBuffer), "s"});

  // record: chunk building (RE/PE/LP, epoch cuts) inside the flushing hooks.
  const double flush_s = rec_self(Span::kRecordDeliverFlush);
  const double finalize_s = rec_self(Span::kRecordFinalize);
  const double window_s = rec_self(Span::kRecordOnWindow);
  out.push_back({"tool.record.on_deliver.flush_self_s", flush_s, "s"});
  out.push_back({"tool.record.on_deliver.flush_calls",
                 count(rec[Span::kRecordDeliverFlush].calls), "count"});
  out.push_back({"tool.record.finalize.self_s", finalize_s, "s"});
  out.push_back({"record.encode_s", flush_s + finalize_s + window_s, "s"});
  out.push_back({"record.chunks", count(first.record.chunks), "count"});
  out.push_back({"record.events", events, "count"});
  out.push_back({"record.events_per_chunk",
                 events / std::max<double>(1.0, count(first.record.chunks)),
                 "count"});
  out.push_back({"record.raw_bytes_per_event",
                 count(rec[Count::kDeflateInBytes]) / events, "B/event"});

  // compress: frame encode = sink submit minus the nested store append.
  const double deflate_s = rec_self(Span::kSinkSubmit);
  const double deflate_calls = count(rec[Span::kSinkSubmit].calls);
  out.push_back({"compress.deflate.calls", deflate_calls, "count"});
  out.push_back({"compress.deflate.self_s", deflate_s, "s"});
  out.push_back({"compress.deflate.us_per_call",
                 deflate_s / std::max(1.0, deflate_calls) * 1e6, "us"});
  out.push_back({"compress.deflate.in_bytes",
                 count(rec[Count::kDeflateInBytes]), "B"});
  out.push_back({"compress.deflate.out_bytes",
                 count(rec[Count::kAppendBytes]), "B"});
  out.push_back({"compress.deflate.mb_per_s",
                 deflate_s > 0.0
                     ? count(rec[Count::kDeflateInBytes]) / deflate_s / 1e6
                     : 0.0,
                 "MB/s"});

  // store: container writer during record, reader during replay.
  out.push_back({"store.append.calls", count(rec[Span::kStoreAppend].calls),
                 "count"});
  out.push_back({"store.append_s", rec_self(Span::kStoreAppend), "s"});
  out.push_back({"store.sync.calls", count(rec[Span::kStoreSync].calls),
                 "count"});
  out.push_back({"store.sync_s", rec_self(Span::kStoreSync), "s"});
  out.push_back({"store.seal_s", rec_self(Span::kStoreSeal), "s"});
  out.push_back({"store.open_s", rep_self(Span::kStoreOpen), "s"});
  out.push_back({"store.read.calls", count(rep[Span::kStoreRead].calls),
                 "count"});
  out.push_back({"store.read_s", rep_self(Span::kStoreRead), "s"});

  // tool: replay-side hooks (chunk decode happens lazily inside them).
  const struct {
    const char* name;
    Span span;
  } rep_hooks[] = {{"tool.replay.on_send", Span::kReplayOnSend},
                   {"tool.replay.select", Span::kReplaySelect},
                   {"tool.replay.on_unmatched_test",
                    Span::kReplayUnmatchedTest},
                   {"tool.replay.on_deliver", Span::kReplayDeliver}};
  for (const auto& h : rep_hooks) {
    out.push_back({std::string(h.name) + ".calls", count(rep[h.span].calls),
                   "count"});
    out.push_back({std::string(h.name) + ".self_s", rep_self(h.span), "s"});
  }
  out.push_back({"tool.replay.select.block_ratio",
                 count(rep[Count::kReplayBlocked]) /
                     std::max(1.0, count(rep[Span::kReplaySelect].calls)),
                 "share"});

  // Offline decode of the same record.
  const double inflate_s = median_of(
      rounds, [](const Round& r) { return r.decode->inflate_s; });
  out.push_back({"compress.inflate_s", inflate_s, "s"});
  out.push_back({"compress.inflate.mb_per_s",
                 inflate_s > 0.0
                     ? count(first.decode->inflated_bytes) / inflate_s / 1e6
                     : 0.0,
                 "MB/s"});
  out.push_back({"record.chunk_decode_s",
                 median_of(rounds,
                           [](const Round& r) {
                             return r.decode->chunk_decode_s;
                           }),
                 "s"});

  // Coverage: the tool's cost over plain that no traced layer accounts
  // for, and what tracing itself costs.
  const auto record_cost = [](const Round& r) {
    return r.record_traced->wall_s - r.plain.wall_s;
  };
  const auto replay_cost = [&w](const Round& r) {
    return r.replay_traced->wall_s - r.replay_baseline(w).wall_s;
  };
  out.push_back({"tool.record.unattributed_s",
                 median_of(rounds,
                           [&](const Round& r) {
                             return record_cost(r) -
                                    r.record_traced->trace.attributed_s();
                           }),
                 "s"});
  out.push_back({"tool.record.attributed_pct",
                 median_of(rounds,
                           [&](const Round& r) {
                             return 100.0 *
                                    r.record_traced->trace.attributed_s() /
                                    record_cost(r);
                           }),
                 "%"});
  out.push_back({"tool.replay.unattributed_s",
                 median_of(rounds,
                           [&](const Round& r) {
                             return replay_cost(r) -
                                    r.replay_traced->trace.attributed_s();
                           }),
                 "s"});
  out.push_back({"tool.replay.attributed_pct",
                 median_of(rounds,
                           [&](const Round& r) {
                             return 100.0 *
                                    r.replay_traced->trace.attributed_s() /
                                    replay_cost(r);
                           }),
                 "%"});
  out.push_back({"trace.overhead_pct",
                 median_of(rounds,
                           [](const Round& r) {
                             const double untraced =
                                 r.record.wall_s + r.replay.wall_s;
                             const double traced = r.record_traced->wall_s +
                                                   r.replay_traced->wall_s;
                             return 100.0 * (traced - untraced) / untraced;
                           }),
                 "%"});
}

// --- Command line ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string workdir = ".";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (arg == "--scale") {
      if (value != "full" && value != "tiny") return false;
      args.tiny = value == "tiny";
    } else if (arg == "--workdir") {
      args.workdir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

void print_banner(const Workload& w, const Args& args, const Seeds& seeds) {
  const int workers = w.parallel ? parallel_workers() : 0;
  const minimpi::Simulator::Config config = sim_config(w, seeds.record,
                                                       workers);
  const tool::ToolOptions tool_options;
  std::printf("rrbench: record/replay cost over plain runs\n");
  std::printf("workload   : %s (%s, %d ranks, %s %d)%s\n", w.name,
              w.jacobi ? "Jacobi" : "MCB", w.ranks,
              w.jacobi ? "iterations" : "particles/rank", w.load,
              args.tiny ? " [tiny scale]" : "");
  std::printf("simulator  : base_latency %.3g s, jitter_mean %.3g s, "
              "mpi_call_cost %.3g s\n",
              config.base_latency, config.jitter_mean, config.mpi_call_cost);
  std::printf("engine     : plain/record %s, replay sequential\n",
              workers > 0
                  ? ("parallel, " + std::to_string(config.workers) +
                     " workers")
                        .c_str()
                  : "sequential");
  std::printf("tool       : codec %s, chunk_target %zu, deflate level %d, "
              "checkpoint_interval %u, inline sink, CDCC container\n",
              tool::codec_name(tool_options.codec), tool_options.chunk_target,
              static_cast<int>(tool_options.level),
              tool_options.checkpoint_interval);
  std::printf("seeds      : --seed %llu -> record noise %llu, replay noise "
              "%llu\n",
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(seeds.record),
              static_cast<unsigned long long>(seeds.replay));
  std::printf("host       : nproc %d, build %s\n", nproc(),
              RRBENCH_BUILD_TYPE);
  std::printf("run        : %s, %.0f s measured\n",
              args.trace ? "traced (per-layer metrics)"
                         : "untraced (end-to-end metrics)",
              args.seconds);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: rrbench --workload mcb-wide|mcb-deep|jacobi-par "
                 "[--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny] "
                 "[--workdir DIR]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : args.tiny ? kTinyWorkloads : kWorkloads)
    if (args.workload == w.name) workload = &w;
  if (workload == nullptr) {
    std::fprintf(stderr, "rrbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  const Seeds seeds{splitmix64(args.seed), splitmix64(~args.seed)};
  const std::string path =
      (std::filesystem::path(args.workdir) / "record.cdcc").string();
  const std::string scratch_path =
      (std::filesystem::path(args.workdir) / "setup.cdcc").string();
  print_banner(w, args, seeds);

  // An untraced warm-up round pays first-touch page faults, measures peak
  // memory and sets the reference every measured round must reproduce; it
  // is checked but not timed.
  Checker checker;
  const Round reference =
      run_round(w, seeds, path, scratch_path, false, true);
  checker.check_round(w, reference, reference, 0);

  const std::size_t min_rounds = args.tiny ? 1 : 3;
  std::vector<Round> rounds;
  const auto t_measure = Clock::now();
  while (rounds.size() < min_rounds || since(t_measure) < args.seconds) {
    rounds.push_back(
        run_round(w, seeds, path, scratch_path, args.trace, false));
    const Round& r = rounds.back();
    checker.check_round(w, r, reference, static_cast<int>(rounds.size()));
    std::printf("round %2zu   : plain %.4f s, record %.4f s, replay %.4f s, "
                "setup %.6f s, reference %.4f/%.4f s\n",
                rounds.size(), r.plain.wall_s, r.record.wall_s,
                r.replay.wall_s, median(r.setup_s), r.reference_s[0],
                r.reference_s[1]);
  }
  std::filesystem::remove(path);
  std::filesystem::remove(scratch_path);

  const HostSpeed speed = host_speed(rounds);
  std::vector<Metric> metrics;
  if (args.trace)
    per_layer_metrics(w, rounds, metrics);
  else
    end_to_end_metrics(w, reference, rounds, speed, checker, metrics);

  std::printf("rounds     : %zu measured in %.2f s\n", rounds.size(),
              since(t_measure));
  std::printf("host speed : reference pass %.4f s (nominal %.2f s); "
              "end-to-end times are scaled by %.4f\n",
              speed.reference_s, kReferenceNominalS, speed.scale);
  for (const Metric& m : metrics)
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit);

  std::string json = "{\"correct\": ";
  json += checker.correct() ? "true" : "false";
  // Attempted operations are replays; a failed one did not reproduce the
  // recording. Any other failed check leaves failed alone but clears
  // correct.
  json += ", \"attempted\": " + std::to_string(checker.replays());
  json += ", \"failed\": " + std::to_string(checker.mismatches());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return checker.correct() ? 0 : 1;
}
