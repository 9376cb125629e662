#include "apps/mcb.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "support/check.h"
#include "support/rng.h"

namespace cdc::apps {

namespace {

using minimpi::Comm;
using minimpi::Rank;
using minimpi::Request;
using minimpi::Task;

constexpr int kParticleTag = 10;
constexpr int kDoneTag = 11;
constexpr int kStopTag = 12;
/// Outstanding particle receives per neighbour.
constexpr int kRecvsPerNeighbour = 4;
/// Virtual seconds per track segment.
constexpr double kTrackCost = 1.0e-6;
/// Seeds particle initialisation (noise-independent).
constexpr std::uint64_t kPhysicsSeed = 12345;

/// A particle in flight. Carries its own RNG state so that its trajectory
/// is a pure function of its state — independent of the order in which
/// ranks process particles. Trivially copyable: sent as a raw payload.
struct Particle {
  double x = 0.0;
  double y = 0.0;
  double weight = 1.0;
  std::uint64_t rng = 0;
  std::int32_t segments_left = 0;
  std::int32_t padding = 0;
};
static_assert(std::is_trivially_copyable_v<Particle>);

/// splitmix64 step: the particle-carried RNG.
std::uint64_t next_u64(std::uint64_t& state) noexcept {
  return support::splitmix64(state += support::kGoldenGamma);
}

double next_unit(std::uint64_t& state) noexcept {
  return static_cast<double>(next_u64(state) >> 11) * 0x1.0p-53;
}

struct SharedResult {
  double tally = 0.0;
  double tracks = 0.0;
  double stop_time = 0.0;  ///< virtual time when global completion decided
};

/// Advances one track segment; returns the tally deposit.
double track_segment(Particle& p, int grid_x, int grid_y) {
  const std::uint64_t dir = next_u64(p.rng) & 3;
  const double r = 0.05 + 0.85 * next_unit(p.rng);
  switch (dir) {
    case 0: p.x += r; break;
    case 1: p.x -= r; break;
    case 2: p.y += r; break;
    default: p.y -= r; break;
  }
  // Periodic global boundaries (toroidal domain).
  const auto gx = static_cast<double>(grid_x);
  const auto gy = static_cast<double>(grid_y);
  if (p.x < 0.0) p.x += gx;
  if (p.x >= gx) p.x -= gx;
  if (p.y < 0.0) p.y += gy;
  if (p.y >= gy) p.y -= gy;
  const double deposit = p.weight * r;
  p.weight *= 0.995;
  --p.segments_left;
  return deposit;
}

Task mcb_rank(Comm& comm, McbConfig cfg, SharedResult* shared) {
  const Rank rank = comm.rank();
  const int gx = cfg.grid_x;
  const int gy = cfg.grid_y;
  const int cx = static_cast<int>(rank) % gx;
  const int cy = static_cast<int>(rank) / gx;

  // Neighbour ranks: periodic (toroidal) 4-neighbourhood, so every rank
  // has the same communication degree and clocks advance at equal rates
  // across ranks (as in the paper's interior-dominated 3,072-rank runs).
  std::vector<Rank> neighbours;
  const auto cell_rank = [gx](int x, int y) {
    return static_cast<Rank>(y * gx + x);
  };
  constexpr std::pair<int, int> kOffsets[] = {{-1, 0}, {1, 0}, {0, -1}, {0, 1}};
  for (const auto& [dx, dy] : kOffsets) {
    const int nx = (cx + dx + gx) % gx;
    const int ny = (cy + dy + gy) % gy;
    const Rank nb = cell_rank(nx, ny);
    if (nb == rank) continue;  // degenerate 1-wide grids
    if (std::find(neighbours.begin(), neighbours.end(), nb) ==
        neighbours.end())
      neighbours.push_back(nb);
  }

  // Deterministic particle initialisation (independent of the noise seed:
  // the physics is identical across runs, only message timing varies).
  std::uint64_t init_rng = kPhysicsSeed * 1000003ull +
                           static_cast<std::uint64_t>(rank);
  std::deque<Particle> local;
  for (int i = 0; i < cfg.particles_per_rank; ++i) {
    Particle p;
    p.x = cx + next_unit(init_rng);
    p.y = cy + next_unit(init_rng);
    p.weight = 0.5 + next_unit(init_rng);
    p.rng = next_u64(init_rng);
    p.segments_left =
        1 + static_cast<std::int32_t>(next_u64(init_rng) %
                                      (2 * cfg.segments_per_particle - 1));
    local.push_back(p);
  }

  // Pre-post particle receives for every neighbour (§2.1: "posts
  // non-blocking receives for all possible incoming messages"); several
  // outstanding receives per peer so bursts drain in one Testsome.
  std::vector<Request> particle_recvs;
  std::vector<Rank> recv_owner;
  particle_recvs.reserve(neighbours.size() * kRecvsPerNeighbour);
  for (const Rank nb : neighbours) {
    for (int i = 0; i < kRecvsPerNeighbour; ++i) {
      particle_recvs.push_back(comm.irecv(nb, kParticleTag));
      recv_owner.push_back(nb);
    }
  }

  // Exit-coordination plumbing. Rank 0 pre-posts a pool of wildcard
  // receives for completion counts so bursts from thousands of ranks match
  // posted requests instead of piling up in the unexpected queue.
  Request stop_recv = comm.irecv(0, kStopTag);
  std::vector<Request> done_pool;
  if (rank == 0) {
    const int pool = std::min(64, std::max(4, comm.size() / 4));
    for (int i = 0; i < pool; ++i)
      done_pool.push_back(comm.irecv(minimpi::kAnySource, kDoneTag));
  }
  const std::uint64_t born_total =
      static_cast<std::uint64_t>(comm.size()) *
      static_cast<std::uint64_t>(cfg.particles_per_rank);
  std::uint64_t done_total = 0;
  std::uint64_t absorbed_delta = 0;
  bool stop_sent = false;

  double tally = 0.0;
  std::uint64_t tracks = 0;
  bool stopped = false;
  int idle_rounds = 0;

  while (!stopped) {
    // Phase 1: process a bounded batch of local track segments.
    int processed = 0;
    while (!local.empty() && processed < cfg.tracks_per_poll) {
      Particle p = local.front();
      local.pop_front();
      tally += track_segment(p, gx, gy);
      ++tracks;
      ++processed;
      if (p.segments_left <= 0) {
        ++absorbed_delta;
        continue;
      }
      const int owner_x = static_cast<int>(p.x);
      const int owner_y = static_cast<int>(p.y);
      const Rank owner = static_cast<Rank>(owner_y * gx + owner_x);
      if (owner == rank) {
        local.push_back(p);
      } else {
        comm.isend(owner, kParticleTag, minimpi::to_payload(p));
      }
    }
    // An idle pass (no local particles) costs a full poll interval; a rank
    // that stays idle backs off exponentially (capped), like a polling
    // loop that yields while waiting for work or the stop message.
    if (processed > 0) {
      idle_rounds = 0;
      co_await comm.compute(static_cast<double>(processed) * kTrackCost);
    } else {
      idle_rounds = std::min(idle_rounds + 1, 2);
      co_await comm.compute(
          static_cast<double>(cfg.tracks_per_poll << idle_rounds) *
          kTrackCost);
    }

    // Phase 2: stream completion counts to rank 0, batched to keep the
    // coordinator's inbox manageable at scale.
    if (absorbed_delta > 0 && (local.empty() || absorbed_delta >= 64)) {
      comm.isend(0, kDoneTag, minimpi::to_payload(absorbed_delta));
      absorbed_delta = 0;
    }

    // Phase 3 (rank 0): drain completion counts; announce the stop when
    // every particle born has terminated.
    if (rank == 0) {
      auto counts = co_await comm.testsome(done_pool, kMcbDoneCallsite);
      for (const minimpi::Completion& c : counts.completions) {
        done_total += minimpi::from_payload<std::uint64_t>(c.payload);
        done_pool[c.span_index] = comm.irecv(minimpi::kAnySource, kDoneTag);
      }
      if (!stop_sent && done_total == born_total) {
        shared->stop_time = comm.now();
        for (Rank r = 0; r < comm.size(); ++r)
          comm.isend(r, kStopTag, {});
        stop_sent = true;
      }
    }

    // Phase 4: first-come-first-served particle arrivals (the paper's
    // Testsome loop); re-post each matched receive immediately.
    if (!particle_recvs.empty()) {
      auto arrivals = co_await comm.testsome(particle_recvs,
                                             kMcbParticleCallsite);
      for (const minimpi::Completion& c : arrivals.completions) {
        local.push_back(minimpi::from_payload<Particle>(c.payload));
        particle_recvs[c.span_index] =
            comm.irecv(recv_owner[c.span_index], kParticleTag);
      }
    }

    // Phase 5: check for the stop message.
    auto stop = co_await comm.test(stop_recv, kMcbStopCallsite);
    if (stop.flag) stopped = true;
  }

  // Deterministic global reduction of the order-sensitive local tallies.
  std::vector<double> contributions = {tally, static_cast<double>(tracks)};
  std::vector<double> sums =
      co_await comm.allreduce_sum(std::move(contributions));
  if (rank == 0) {
    shared->tally = sums[0];
    shared->tracks = sums[1];
  }
}

}  // namespace

McbResult run_mcb(minimpi::Simulator& sim, const McbConfig& config) {
  CDC_CHECK(config.grid_x * config.grid_y == sim.size());
  auto shared = std::make_shared<SharedResult>();
  sim.set_program([config, shared](Comm& comm) {
    return mcb_rank(comm, config, shared.get());
  });
  const minimpi::Simulator::Stats stats = sim.run();

  McbResult result;
  result.global_tally = shared->tally;
  result.total_tracks = static_cast<std::uint64_t>(shared->tracks);
  result.elapsed = stats.end_time;
  // Throughput over the productive phase: initialization to the moment
  // global completion is established. The subsequent stop broadcast and
  // final reduction are a fixed epilogue, not tracking work.
  const double active =
      shared->stop_time > 0.0 ? shared->stop_time : stats.end_time;
  result.active_time = active;
  result.tracks_per_sec = active > 0.0 ? shared->tracks / active : 0.0;
  result.messages = stats.messages_sent;
  return result;
}

}  // namespace cdc::apps
