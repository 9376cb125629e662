// Figure 14: histogram of the percentage of permutated messages across
// MPI ranks on MCB.
//
// The similarity metric is Np / N — permutated (moved) messages over total
// received messages, per rank. The paper reports ~30% on average at 3,072
// processes, i.e. ~70% of receives already follow the reference
// logical-clock order.
#include <cstdio>

#include "common.h"
#include "obs/stats.h"
#include "runtime/storage.h"
#include "tool/recorder.h"

int main() {
  using namespace cdc;
  const int default_ranks = bench::full_scale() ? 3072 : 768;
  const int ranks = bench::env_int("CDC_RANKS", default_ranks);
  bench::print_machine_banner(
      "Figure 14 — percentage of permutated messages per rank (MCB)",
      ranks);

  runtime::CountingStore store;
  tool::Recorder recorder(ranks, &store);
  minimpi::Simulator sim(bench::sim_config(ranks), &recorder);
  apps::run_mcb(sim, bench::mcb_config(ranks));
  recorder.finalize();

  obs::FixedHistogram histogram(0.0, 100.0, 20);
  for (const double p : recorder.permutation_percentages())
    histogram.add(100.0 * p);

  std::printf("%8s %9s  histogram (one # per %d ranks)\n", "perm. %",
              "ranks", std::max(1, ranks / 200));
  const std::size_t unit =
      static_cast<std::size_t>(std::max(1, ranks / 200));
  for (std::size_t b = 0; b < histogram.counts().size(); ++b) {
    const std::size_t count = histogram.counts()[b];
    std::printf("%3.0f-%3.0f%% %9zu  ", histogram.bucket_lo(b),
                histogram.bucket_lo(b) + histogram.bucket_width(), count);
    for (std::size_t i = 0; i < count / unit; ++i) std::printf("#");
    std::printf("\n");
  }
  std::printf("\nmean %.1f%%, min %.1f%%, max %.1f%% over %zu ranks\n",
              histogram.summary().mean(), histogram.summary().min(),
              histogram.summary().max(), histogram.summary().count());
  std::printf(
      "\npaper shape: similarity ~30%% on average — most receives follow\n"
      "the reference order, which is what CDC exploits (Figure 14).\n");
  return histogram.summary().mean() < 60.0 ? 0 : 1;
}
