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
#include <cstdio>
#include <cstdlib>

#include "apps/jacobi.h"
#include "minimpi/simulator.h"
#include "obs/stats.h"
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
  const int gx = argc > 1 ? std::atoi(argv[1]) : 8;
  const int gy = argc > 2 ? std::atoi(argv[2]) : 8;
  const int iterations = argc > 3 ? std::atoi(argv[3]) : 1000;

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
