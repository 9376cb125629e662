// cdc_run — command-line record/replay driver (the "release binary").
//
// Runs one of the bundled applications on the simulator, optionally under
// the CDC recorder or replayer, with the record kept in one sealed record
// container file (the format record_inspector reads) — the workflow a user
// of the real tool would follow:
//
//   # 1. the bug manifests under some network condition: record it
//   $ ./cdc_run --app mcb --ranks 16 --seed 3 --mode record --file rec.cdcc
//
//   # 2. debug: replay as many times as needed, any network condition
//   $ ./cdc_run --app mcb --ranks 16 --seed 77 --mode replay --file rec.cdcc
//
// Modes: plain (default) | record | replay.  Apps: mcb | jacobi | taskfarm.
// Numeric flags take a whole unsigned decimal: --ranks in [1, INT_MAX],
// --scale in [0, INT_MAX]. Anything else (a sign, trailing text, out of
// range) exits 2 with the usage text.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "apps/jacobi.h"
#include "apps/mcb.h"
#include "apps/taskfarm.h"
#include "minimpi/simulator.h"
#include "obs/stats.h"
#include "parse_number.h"
#include "store/container_store.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace {

using namespace cdc;

struct Options {
  std::string app = "mcb";
  std::string mode = "plain";
  std::string file = "/tmp/cdc_run_record.cdcc";
  int ranks = 16;
  std::uint64_t seed = 1;
  std::size_t chunk_target = 4096;
  int scale = 100;  // particles / iterations / tasks knob
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--app mcb|jacobi|taskfarm] [--mode "
               "plain|record|replay]\n"
               "          [--ranks N] [--seed S] [--file PATH] [--scale N] "
               "[--chunk N]\n",
               argv0);
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    // Reads this flag's value as a number in [lo, hi]; on failure names
    // the flag (the caller prints the usage text and exits 2).
    unsigned long long n = 0;
    const auto number = [&](unsigned long long lo, unsigned long long hi) {
      const char* v = next();
      if (cli::parse_number(v, lo, hi, &n)) return true;
      std::fprintf(stderr, "cdc_run: bad %s value '%s'\n", arg.c_str(),
                   v == nullptr ? "" : v);
      return false;
    };
    if (arg == "--app") {
      const char* v = next();
      if (v == nullptr) return false;
      options.app = v;
    } else if (arg == "--mode") {
      const char* v = next();
      if (v == nullptr) return false;
      options.mode = v;
    } else if (arg == "--file") {
      const char* v = next();
      if (v == nullptr) return false;
      options.file = v;
    } else if (arg == "--ranks") {
      if (!number(1, INT_MAX)) return false;
      options.ranks = static_cast<int>(n);
    } else if (arg == "--seed") {
      if (!number(0, ULLONG_MAX)) return false;
      options.seed = n;
    } else if (arg == "--scale") {
      if (!number(0, INT_MAX)) return false;
      options.scale = static_cast<int>(n);
    } else if (arg == "--chunk") {
      if (!number(0, SIZE_MAX)) return false;
      options.chunk_target = static_cast<std::size_t>(n);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return (options.mode == "plain" || options.mode == "record" ||
          options.mode == "replay") &&
         (options.app == "mcb" || options.app == "jacobi" ||
          options.app == "taskfarm");
}

std::pair<int, int> grid_for(int ranks) {
  int best = 1;
  for (int x = 1; x * x <= ranks; ++x)
    if (ranks % x == 0) best = x;
  return {ranks / best, best};
}

/// Runs the selected app; returns an order-sensitive scalar result.
double run_app(const Options& options, minimpi::Simulator& sim) {
  const auto [gx, gy] = grid_for(options.ranks);
  if (options.app == "mcb") {
    apps::McbConfig config;
    config.grid_x = gx;
    config.grid_y = gy;
    config.particles_per_rank = options.scale;
    return apps::run_mcb(sim, config).global_tally;
  }
  if (options.app == "jacobi") {
    apps::JacobiConfig config;
    config.grid_x = gx;
    config.grid_y = gy;
    config.iterations = options.scale;
    return apps::run_jacobi(sim, config).residual;
  }
  apps::TaskFarmConfig config;
  config.tasks = options.scale * 10;
  return apps::run_taskfarm(sim, config).accumulated;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    usage(argv[0]);
    return 2;
  }

  minimpi::Simulator::Config sim_config;
  sim_config.num_ranks = options.ranks;
  sim_config.noise_seed = options.seed;

  std::unique_ptr<store::ContainerStore> container;
  std::unique_ptr<tool::Recorder> recorder;
  std::unique_ptr<tool::Replayer> replayer;
  tool::ToolOptions tool_options;
  tool_options.chunk_target = options.chunk_target;

  minimpi::ToolHooks* hooks = nullptr;
  if (options.mode == "record") {
    container = std::make_unique<store::ContainerStore>(options.file);
    recorder = std::make_unique<tool::Recorder>(
        options.ranks, container.get(), tool_options);
    hooks = recorder.get();
  } else if (options.mode == "replay") {
    container = store::ContainerStore::open(options.file);
    replayer = std::make_unique<tool::Replayer>(
        options.ranks, container.get(), tool_options);
    hooks = replayer.get();
  }

  minimpi::Simulator sim(sim_config, hooks);
  const double result = run_app(options, sim);

  std::printf("app=%s ranks=%d seed=%llu mode=%s\n", options.app.c_str(),
              options.ranks, static_cast<unsigned long long>(options.seed),
              options.mode.c_str());
  std::printf("result   : %.17g\n", result);
  if (recorder) {
    recorder->finalize();
    container->seal();
    const auto totals = recorder->totals();
    std::printf("recorded : %llu events, %llu chunks, %s -> %s\n",
                static_cast<unsigned long long>(totals.matched_events),
                static_cast<unsigned long long>(totals.chunks),
                obs::format_bytes(
                    static_cast<double>(container->total_bytes())).c_str(),
                options.file.c_str());
    std::printf("digest   : %016llx\n",
                static_cast<unsigned long long>(recorder->order_digest()));
  }
  if (replayer) {
    std::printf("replayed : %llu events (%s)\n",
                static_cast<unsigned long long>(
                    replayer->totals().replayed_events),
                replayer->fully_replayed() ? "complete" : "INCOMPLETE");
    std::printf("digest   : %016llx\n",
                static_cast<unsigned long long>(replayer->order_digest()));
  }
  return 0;
}
