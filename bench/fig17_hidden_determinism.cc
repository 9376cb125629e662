// Figure 17: compression size under hidden-deterministic communication.
//
// Paper: a Poisson/Jacobi solver (Himeno-style) at 6,114 processes, 1K
// iterations, posting MPI_ANY_SOURCE receives whose actual order is
// deterministic. gzip records 91 MB; CDC records 2 MB (2.2%) — the LP
// encoder predicts the regular index sequences almost perfectly, so the
// recording is nearly free.
#include <cstdio>

#include "apps/jacobi.h"
#include "common.h"
#include "obs/stats.h"
#include "runtime/storage.h"
#include "tool/recorder.h"

namespace {

std::uint64_t record_with(cdc::tool::RecordCodec codec, int ranks,
                          int iterations, std::uint64_t* events) {
  using namespace cdc;
  const auto [gx, gy] = bench::grid_for(ranks);
  runtime::CountingStore store;
  tool::ToolOptions options;
  options.codec = codec;
  tool::Recorder recorder(ranks, &store, options);
  minimpi::Simulator sim(bench::sim_config(ranks, 7), &recorder);

  apps::JacobiConfig jacobi;
  jacobi.grid_x = gx;
  jacobi.grid_y = gy;
  jacobi.iterations = iterations;
  apps::run_jacobi(sim, jacobi);
  recorder.finalize();
  if (events != nullptr) *events = recorder.totals().matched_events;
  return store.total_bytes();
}

}  // namespace

int main() {
  using namespace cdc;
  const int default_ranks = bench::full_scale() ? 6084 : 384;
  const int ranks = bench::env_int("CDC_RANKS", default_ranks);
  const int iterations = bench::env_int("CDC_ITERS", 1000);
  bench::print_machine_banner(
      "Figure 17 — hidden-deterministic communication (Jacobi, 1K iters)",
      ranks);

  std::uint64_t events = 0;
  const std::uint64_t gzip_bytes =
      record_with(tool::RecordCodec::kBaselineGzip, ranks, iterations,
                  &events);
  std::fprintf(stderr, "  [measured gzip]\n");
  const std::uint64_t cdc_bytes =
      record_with(tool::RecordCodec::kCdcFull, ranks, iterations, nullptr);
  std::fprintf(stderr, "  [measured CDC]\n");

  std::printf("receive events: %llu (%d iterations)\n\n",
              static_cast<unsigned long long>(events), iterations);
  std::printf("%-8s %12s %14s\n", "method", "record size", "bytes/event");
  std::printf("%-8s %12s %14.4f\n", "gzip",
              obs::format_bytes(static_cast<double>(gzip_bytes)).c_str(),
              static_cast<double>(gzip_bytes) / static_cast<double>(events));
  std::printf("%-8s %12s %14.4f\n", "CDC",
              obs::format_bytes(static_cast<double>(cdc_bytes)).c_str(),
              static_cast<double>(cdc_bytes) / static_cast<double>(events));
  std::printf("\nCDC / gzip = %.1f%%\n",
              100.0 * static_cast<double>(cdc_bytes) /
                  static_cast<double>(gzip_bytes));
  std::printf(
      "\npaper shape: 91 MB (gzip) vs 2 MB (CDC) = 2.2%% at 6,114 procs —\n"
      "CDC records hidden-deterministic patterns almost for free.\n");
  return cdc_bytes * 4 < gzip_bytes ? 0 : 1;
}
