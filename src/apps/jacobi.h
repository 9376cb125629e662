// Jacobi/Poisson solver with hidden-deterministic communication (§6.3).
//
// Solves Poisson's equation on a 2-D grid with the Jacobi iteration,
// distributed over a 2-D rank grid with halo exchange. Like the Himeno-
// style application the paper records, the halo receives are posted with
// MPI_ANY_SOURCE even though each direction's message is identified by its
// tag — so the actual message-receive order is deterministic, but no
// record-and-replay tool can know that without observing the run (hidden
// determinism). CDC's LP encoding all but eliminates the record for this
// regular pattern (Figure 17: 2 MB vs gzip's 91 MB at 6,114 processes).
#pragma once

#include <cstdint>

#include "minimpi/simulator.h"

namespace cdc::apps {

struct JacobiConfig {
  int grid_x = 4;   ///< rank grid width
  int grid_y = 4;   ///< rank grid height
  int local_nx = 16;  ///< interior cells per rank, x
  int local_ny = 16;  ///< interior cells per rank, y
  int iterations = 1000;  ///< the paper records 1K iterations
};

inline constexpr minimpi::CallsiteId kJacobiHaloCallsite = 1;

struct JacobiResult {
  double residual = 0.0;  ///< deterministic checksum of the solve
  std::uint64_t iterations = 0;
  double elapsed = 0.0;
  std::uint64_t messages = 0;
};

/// Installs the Jacobi program on every rank of `sim` and runs it.
JacobiResult run_jacobi(minimpi::Simulator& sim, const JacobiConfig& config);

}  // namespace cdc::apps
