// Descriptive statistics shared by the metrics layer, the pipeline
// report, the figure benches and the examples: one place owns the
// min/max/mean logic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "support/check.h"

namespace cdc::obs {

/// Online min/max/mean accumulator.
class Summary {
 public:
  void add(double x) noexcept {
    ++n_;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    mean_ += (x - mean_) / static_cast<double>(n_);
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept { return mean_; }

 private:
  std::size_t n_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double mean_ = 0.0;
};

/// Fixed-width bucket histogram over [lo, hi); values outside clamp to the
/// end buckets. (The concurrent, log-bucketed metric histogram lives in
/// obs/metrics.h — this one is the single-threaded analysis tool Figure 14
/// plots.)
class FixedHistogram {
 public:
  FixedHistogram(double lo, double hi, std::size_t buckets)
      : lo_(lo), hi_(hi), counts_(buckets, 0) {
    CDC_CHECK(hi > lo && buckets > 0);
  }

  void add(double x) noexcept {
    const double t = (x - lo_) / (hi_ - lo_);
    auto idx = static_cast<std::ptrdiff_t>(
        t * static_cast<double>(counts_.size()));
    idx = std::clamp<std::ptrdiff_t>(
        idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(idx)];
    summary_.add(x);
  }

  [[nodiscard]] const std::vector<std::size_t>& counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] double bucket_lo(std::size_t i) const noexcept {
    return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                     static_cast<double>(counts_.size());
  }
  [[nodiscard]] double bucket_width() const noexcept {
    return (hi_ - lo_) / static_cast<double>(counts_.size());
  }
  [[nodiscard]] const Summary& summary() const noexcept { return summary_; }

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  Summary summary_;
};

/// Human-readable byte size, e.g. "197.0 MB" — used by the fig-13/15/17
/// harness output to mirror the paper's units.
inline std::string format_bytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1000.0 && u < 4) {
    bytes /= 1000.0;
    ++u;
  }
  char out[32];
  std::snprintf(out, sizeof out, "%.2f %s", bytes, units[u]);
  return out;
}

}  // namespace cdc::obs
