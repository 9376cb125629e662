// The receive-order digest that Recorder and Replayer both keep per rank.
//
// Equal digests mean a replay surfaced the recorded per-rank receive-event
// streams: each delivery folds in (callsite, source, piggybacked clock),
// in order. The fold is FNV-1a over 64-bit words — one multiply per field
// on the per-delivery hook path.
#pragma once

#include <cstdint>

#include "minimpi/types.h"

namespace cdc::tool {

inline constexpr std::uint64_t kOrderDigestBasis = 0xcbf29ce484222325ull;

[[nodiscard]] inline std::uint64_t fold_delivery(
    std::uint64_t digest, minimpi::CallsiteId callsite, minimpi::Rank source,
    std::uint64_t clock) noexcept {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  digest = (digest ^ callsite) * kPrime;
  digest = (digest ^ static_cast<std::uint64_t>(source)) * kPrime;
  return (digest ^ clock) * kPrime;
}

}  // namespace cdc::tool
