// Hidden determinism (§6.3): recording a deterministic wildcard pattern.
//
// The Jacobi solver posts MPI_ANY_SOURCE halo receives although each tag
// has exactly one possible sender — the receive order is deterministic,
// but no tool can know that without watching the run, so everything gets
// recorded. The example contrasts the gzip'd traditional record with CDC,
// whose LP encoding all but eliminates the regular pattern (the paper
// reports 91 MB vs 2 MB at 6,114 processes).
//
//   $ ./jacobi_hidden_determinism [grid_x grid_y iterations]
//
// Grid sizes are whole decimals in [1, 1024], iterations in [1, INT_MAX];
// anything else exits 2 with the usage line.
#include <climits>
#include <cstdio>

#include "apps/jacobi.h"
#include "minimpi/simulator.h"
#include "obs/stats.h"
#include "parse_number.h"
#include "runtime/storage.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace {

std::uint64_t record_with(cdc::tool::RecordCodec codec, int gx, int gy,
                          int iterations, double* residual) {
  cdc::minimpi::Simulator::Config config;
  config.num_ranks = gx * gy;
  config.noise_seed = 7;

  cdc::runtime::MemoryStore store;
  cdc::tool::ToolOptions options;
  options.codec = codec;
  cdc::tool::Recorder recorder(config.num_ranks, &store, options);
  cdc::minimpi::Simulator sim(config, &recorder);

  cdc::apps::JacobiConfig jacobi;
  jacobi.grid_x = gx;
  jacobi.grid_y = gy;
  jacobi.iterations = iterations;
  const auto result = cdc::apps::run_jacobi(sim, jacobi);
  recorder.finalize();
  if (residual != nullptr) *residual = result.residual;
  return store.total_bytes();
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kProgram = "jacobi_hidden_determinism";
  int gx = 8;
  int gy = 8;
  int iterations = 1000;
  if (argc > 4 ||
      !cdc::cli::parse_positional(argc, argv, 1, kProgram, "grid_x", 1, 1024,
                                  &gx) ||
      !cdc::cli::parse_positional(argc, argv, 2, kProgram, "grid_y", 1, 1024,
                                  &gy) ||
      !cdc::cli::parse_positional(argc, argv, 3, kProgram, "iterations", 1,
                                  INT_MAX, &iterations)) {
    std::fprintf(stderr, "usage: %s [grid_x grid_y iterations]\n", argv[0]);
    return 2;
  }

  std::printf("== Jacobi halo exchange: hidden determinism ==\n");
  std::printf("%d x %d ranks, %d iterations, ANY_SOURCE halo receives\n\n",
              gx, gy, iterations);

  double residual = 0.0;
  const std::uint64_t gzip_bytes = record_with(
      cdc::tool::RecordCodec::kBaselineGzip, gx, gy, iterations, &residual);
  const std::uint64_t cdc_bytes = record_with(
      cdc::tool::RecordCodec::kCdcFull, gx, gy, iterations, nullptr);

  std::printf("final residual       : %.6e\n", residual);
  std::printf("gzip record size     : %s\n",
              cdc::obs::format_bytes(
                  static_cast<double>(gzip_bytes)).c_str());
  std::printf("CDC  record size     : %s (%.1f%% of gzip)\n",
              cdc::obs::format_bytes(
                  static_cast<double>(cdc_bytes)).c_str(),
              100.0 * static_cast<double>(cdc_bytes) /
                  static_cast<double>(gzip_bytes));
  std::printf(
      "\nCDC records the deterministic pattern almost for free — \"as if\n"
      "deterministic communications are automatically excluded\" (§6.3).\n");
  return cdc_bytes * 5 < gzip_bytes ? 0 : 1;
}
