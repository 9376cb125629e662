#include "apps/jacobi.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "support/check.h"

namespace cdc::apps {

namespace {

using minimpi::Comm;
using minimpi::Rank;
using minimpi::Request;
using minimpi::Task;

// Halo direction tags (the receiver's side of the exchange). Each tag has
// exactly one possible sender, which is what makes the ANY_SOURCE receives
// hidden-deterministic.
enum Direction : int { kWest = 0, kEast = 1, kNorth = 2, kSouth = 3 };
constexpr int kNumDirections = 4;
/// Virtual seconds per cell update.
constexpr double kCellCost = 5.0e-9;

std::vector<std::uint8_t> pack_doubles(const std::vector<double>& values) {
  std::vector<std::uint8_t> bytes(values.size() * sizeof(double));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

std::vector<double> unpack_doubles(std::span<const std::uint8_t> bytes) {
  CDC_CHECK(bytes.size() % sizeof(double) == 0);
  std::vector<double> values(bytes.size() / sizeof(double));
  std::memcpy(values.data(), bytes.data(), bytes.size());
  return values;
}

struct SharedResult {
  double residual = 0.0;
};

Task jacobi_rank(Comm& comm, JacobiConfig cfg, SharedResult* shared) {
  const Rank rank = comm.rank();
  const int gx = cfg.grid_x;
  const int cx = static_cast<int>(rank) % gx;
  const int cy = static_cast<int>(rank) / gx;
  const int nx = cfg.local_nx;
  const int ny = cfg.local_ny;

  Rank neighbour[kNumDirections] = {-1, -1, -1, -1};
  if (cx > 0) neighbour[kWest] = rank - 1;
  if (cx + 1 < gx) neighbour[kEast] = rank + 1;
  if (cy > 0) neighbour[kNorth] = rank - gx;
  if (cy + 1 < cfg.grid_y) neighbour[kSouth] = rank + gx;

  // (nx+2) x (ny+2) including halo cells; row-major.
  const int stride = nx + 2;
  std::vector<double> u(static_cast<std::size_t>(stride) * (ny + 2), 0.0);
  std::vector<double> u_next = u;
  const auto at = [&](std::vector<double>& grid, int i, int j) -> double& {
    return grid[static_cast<std::size_t>(j) * stride +
                static_cast<std::size_t>(i)];
  };
  // Source term: a smooth bump that differs per global position.
  const auto source = [&](int i, int j) {
    const double x = (cx * nx + i - 1 + 0.5) / (gx * nx);
    const double y = (cy * ny + j - 1 + 0.5) / (cfg.grid_y * ny);
    return std::sin(3.1415926 * x) * std::sin(3.1415926 * y);
  };

  double residual = 0.0;
  for (int iter = 0; iter < cfg.iterations; ++iter) {
    // Send boundary strips to every neighbour.
    for (int d = 0; d < kNumDirections; ++d) {
      if (neighbour[d] < 0) continue;
      std::vector<double> strip;
      switch (d) {
        case kWest:
          for (int j = 1; j <= ny; ++j) strip.push_back(at(u, 1, j));
          break;
        case kEast:
          for (int j = 1; j <= ny; ++j) strip.push_back(at(u, nx, j));
          break;
        case kNorth:
          for (int i = 1; i <= nx; ++i) strip.push_back(at(u, i, 1));
          break;
        default:
          for (int i = 1; i <= nx; ++i) strip.push_back(at(u, i, ny));
          break;
      }
      // The receiver's direction is the mirror of ours.
      const int mirror = d ^ 1;
      comm.isend(neighbour[d], mirror, pack_doubles(strip));
    }

    // Post wildcard receives — the tag alone identifies the halo, so the
    // order below is deterministic although ANY_SOURCE is used (§6.3).
    Request recvs[kNumDirections];
    for (int d = 0; d < kNumDirections; ++d)
      if (neighbour[d] >= 0) recvs[d] = comm.irecv(minimpi::kAnySource, d);

    for (int d = 0; d < kNumDirections; ++d) {
      if (neighbour[d] < 0) continue;
      auto result = co_await comm.wait(recvs[d], kJacobiHaloCallsite);
      const std::vector<double> strip =
          unpack_doubles(result.completions[0].payload);
      switch (d) {
        case kWest:
          for (int j = 1; j <= ny; ++j) at(u, 0, j) = strip[j - 1];
          break;
        case kEast:
          for (int j = 1; j <= ny; ++j) at(u, nx + 1, j) = strip[j - 1];
          break;
        case kNorth:
          for (int i = 1; i <= nx; ++i) at(u, i, 0) = strip[i - 1];
          break;
        default:
          for (int i = 1; i <= nx; ++i) at(u, i, ny + 1) = strip[i - 1];
          break;
      }
    }

    // Jacobi sweep.
    residual = 0.0;
    for (int j = 1; j <= ny; ++j) {
      for (int i = 1; i <= nx; ++i) {
        const double updated =
            0.25 * (at(u, i - 1, j) + at(u, i + 1, j) + at(u, i, j - 1) +
                    at(u, i, j + 1) + source(i, j));
        residual += std::abs(updated - at(u, i, j));
        at(u_next, i, j) = updated;
      }
    }
    std::swap(u, u_next);
    co_await comm.compute(static_cast<double>(nx) * ny * kCellCost);
  }

  std::vector<double> contributions = {residual};
  std::vector<double> sums =
      co_await comm.allreduce_sum(std::move(contributions));
  if (rank == 0) shared->residual = sums[0];
}

}  // namespace

JacobiResult run_jacobi(minimpi::Simulator& sim, const JacobiConfig& config) {
  CDC_CHECK(config.grid_x * config.grid_y == sim.size());
  auto shared = std::make_shared<SharedResult>();
  sim.set_program([config, shared](Comm& comm) {
    return jacobi_rank(comm, config, shared.get());
  });
  const minimpi::Simulator::Stats stats = sim.run();

  JacobiResult result;
  result.residual = shared->residual;
  result.iterations = static_cast<std::uint64_t>(config.iterations);
  result.elapsed = stats.end_time;
  result.messages = stats.messages_sent;
  return result;
}

}  // namespace cdc::apps
