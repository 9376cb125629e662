// MCB-style Monte Carlo particle transport mini-app (§2.1).
//
// Reimplements the communication idiom of the CORAL MCB benchmark that the
// paper evaluates: a domain-decomposed particle Monte Carlo where each MPI
// rank
//   * pre-posts nonblocking receives for every possible incoming particle
//     message,
//   * processes a bounded batch of local particle track segments, then
//     polls MPI_Testsome first-come-first-served for newly arrived
//     particles, appends them to its local list and immediately re-posts
//     the receive,
//   * forwards particles that cross its domain boundary to the owning
//     neighbour with a nonblocking send, and
//   * participates in an asynchronous exit protocol (completion counts are
//     streamed to rank 0 with MPI_ANY_SOURCE receives; rank 0 broadcasts a
//     stop message once every particle born has terminated).
//
// Each particle carries its own RNG state, so its physics is independent
// of processing order; the only run-to-run variation under different
// network-noise seeds is the order in which track segments update the
// rank-local tally — and double-precision addition is not associative, so
// the global tally varies in the last bits exactly as the paper describes.
// Order-replay makes it bitwise reproducible.
#pragma once

#include <cstdint>

#include "minimpi/simulator.h"

namespace cdc::apps {

struct McbConfig {
  int grid_x = 4;  ///< rank grid width  (num_ranks = grid_x * grid_y)
  int grid_y = 4;  ///< rank grid height
  int particles_per_rank = 4000;  ///< weak scaling, as in §6.2
  int segments_per_particle = 12; ///< mean track segments until absorption
  int tracks_per_poll = 8;        ///< local work between Testsome polls
};

/// MF callsites (the §4.4 identification keys).
inline constexpr minimpi::CallsiteId kMcbParticleCallsite = 1;
inline constexpr minimpi::CallsiteId kMcbDoneCallsite = 2;
inline constexpr minimpi::CallsiteId kMcbStopCallsite = 3;

struct McbResult {
  double global_tally = 0.0;       ///< order-sensitive in the last bits
  std::uint64_t total_tracks = 0;  ///< track segments processed
  double elapsed = 0.0;            ///< virtual seconds, whole run
  double active_time = 0.0;        ///< virtual seconds until completion
  double tracks_per_sec = 0.0;     ///< the paper's Figure 16 metric
  std::uint64_t messages = 0;
};

/// Installs the MCB program on every rank of `sim` and runs it.
McbResult run_mcb(minimpi::Simulator& sim, const McbConfig& config);

}  // namespace cdc::apps
