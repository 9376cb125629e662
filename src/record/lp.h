// Linear predictive encoding (§3.4).
//
// Index columns in the CDC tables grow monotonically; LP encoding predicts
// x̂ₙ = 2xₙ₋₁ − xₙ₋₂ (p = 2, a = (2, −1): the next value lies on the line
// through the previous two) and stores the residual eₙ = xₙ − x̂ₙ, with
// xᵢ≤0 = 0. Residuals of near-linear sequences are near zero, which the
// final gzip stage compresses well. The transform is exactly invertible.
//
// Note: the paper's Figure 8 leaves the first *two* values verbatim while
// the §3.4 text (and its worked example {1,2,4,6,8,12,17} → {1,0,1,0,0,2,1})
// predicts from the second value on with x₀ = 0. We implement the text
// formula; see DESIGN.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cdc::record {

/// Hands eₙ = xₙ − 2xₙ₋₁ + xₙ₋₂ (out-of-range terms zero) for the column
/// xₙ = at(n), n < count, to `emit` in order, without storing it.
///
/// The arithmetic is done in uint64 so adversarial inputs (fuzzed chunk
/// bytes decode to arbitrary int64 values) wrap mod 2⁶⁴ instead of hitting
/// signed overflow; encode/decode stay exact inverses under wraparound.
template <typename At, typename Emit>
void for_each_lp_residual(std::size_t count, At&& at, Emit&& emit) {
  std::uint64_t x1 = 0;
  std::uint64_t x2 = 0;
  for (std::size_t n = 0; n < count; ++n) {
    const auto x = static_cast<std::uint64_t>(at(n));
    emit(static_cast<std::int64_t>(x - 2 * x1 + x2));
    x2 = x1;
    x1 = x;
  }
}

/// The residuals of `xs` (for_each_lp_residual) as a vector.
inline std::vector<std::int64_t> lp_encode(std::span<const std::int64_t> xs) {
  std::vector<std::int64_t> es;
  es.reserve(xs.size());
  for_each_lp_residual(
      xs.size(), [&](std::size_t n) { return xs[n]; },
      [&](std::int64_t e) { es.push_back(e); });
  return es;
}

/// Inverse of lp_encode: xₙ = eₙ + 2xₙ₋₁ − xₙ₋₂.
inline std::vector<std::int64_t> lp_decode(std::span<const std::int64_t> es) {
  std::vector<std::int64_t> xs(es.size());
  for (std::size_t n = 0; n < es.size(); ++n) {
    const auto x1 = static_cast<std::uint64_t>(n >= 1 ? xs[n - 1] : 0);
    const auto x2 = static_cast<std::uint64_t>(n >= 2 ? xs[n - 2] : 0);
    xs[n] = static_cast<std::int64_t>(static_cast<std::uint64_t>(es[n]) +
                                      2 * x1 - x2);
  }
  return xs;
}

}  // namespace cdc::record
