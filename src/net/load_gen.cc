#include "net/load_gen.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "store/container_store.h"
#include "support/file.h"
#include "support/rng.h"
#include "tool/frame_sink.h"

namespace cdc::net {

namespace fs = std::filesystem;

namespace {

std::string record_name(std::size_t client) {
  return "load-" + std::to_string(client);
}

enum class Behavior {
  kNormal,
  kSlow,
  kDisconnect,
  kDuplicate,
  kGarbage,
  kOversized,
};

/// Deterministic behavior assignment: the first slow_pct% of clients are
/// slow, the next disconnect_pct% disconnect, and so on — percentages of
/// the population, stable under reordering of thread completion.
Behavior behavior_of(std::size_t client, std::size_t clients,
                     const FaultPlan& plan) {
  const auto pct = static_cast<std::uint32_t>((client * 100) / clients);
  std::uint32_t edge = plan.slow_pct;
  if (pct < edge) return Behavior::kSlow;
  edge += plan.disconnect_pct;
  if (pct < edge) return Behavior::kDisconnect;
  edge += plan.duplicate_pct;
  if (pct < edge) return Behavior::kDuplicate;
  edge += plan.garbage_pct;
  if (pct < edge) return Behavior::kGarbage;
  edge += plan.oversized_pct;
  if (pct < edge) return Behavior::kOversized;
  return Behavior::kNormal;
}

struct ClientOutcome {
  Behavior behavior = Behavior::kNormal;
  bool ok = false;  ///< the behavior's expected outcome was observed
  bool sealed = false;
  compress::DeflateLevel level = compress::DeflateLevel::kDefault;
  std::vector<std::uint64_t> latency_ns;
  std::uint64_t frames_acked = 0;
  std::uint64_t bytes_acked = 0;
  std::string error;
};

Client::Options ingest_options(const LoadConfig& config, std::size_t client) {
  Client::Options options;
  options.host = config.host;
  options.port = config.port;
  options.token = config.token;
  options.record = record_name(client);
  options.intent = Intent::kIngest;
  options.level = config.level;
  return options;
}

void run_client(const LoadConfig& config, std::size_t index,
                ClientOutcome& outcome) {
  const Behavior behavior =
      behavior_of(index, config.clients, config.faults);
  outcome.behavior = behavior;
  support::Xoshiro256 rng(client_seed(config.seed, index) ^
                          0x5bf03635ull);  // decoupled from payload RNG
  std::string error;
  auto client = Client::connect(ingest_options(config, index), &error);
  if (client == nullptr) {
    outcome.error = "connect: " + error;
    return;
  }
  outcome.level = client->welcome().level;
  const std::vector<WireFrame> jobs = synth_jobs(
      client_seed(config.seed, index), config.shape, client->welcome().level);
  const std::size_t per_batch = config.shape.frames_per_batch;
  const auto slice = [&jobs](std::size_t begin, std::size_t end) {
    return std::vector<WireFrame>(jobs.begin() + begin, jobs.begin() + end);
  };

  const auto finish = [&](bool expect_met) {
    outcome.latency_ns = client->ack_latency_ns();
    outcome.frames_acked = client->frames_acked();
    outcome.bytes_acked = client->bytes_acked();
    outcome.ok = expect_met;
    if (!expect_met && outcome.error.empty())
      outcome.error = client->last_error();
  };

  switch (behavior) {
    case Behavior::kNormal:
    case Behavior::kSlow:
    case Behavior::kDuplicate: {
      bool sent = true;
      for (std::size_t off = 0; sent && off < jobs.size(); off += per_batch) {
        const std::size_t end = std::min(off + per_batch, jobs.size());
        sent = client->put(slice(off, end));
        if (behavior == Behavior::kSlow)
          std::this_thread::sleep_for(
              std::chrono::microseconds(500 + rng.bounded(4500)));
      }
      Sealed sealed;
      const bool done = sent && client->seal(&sealed);
      outcome.sealed = done;
      if (!done) {
        outcome.error = client->last_error();
        finish(false);
        return;
      }
      client->bye();
      if (behavior != Behavior::kDuplicate) {
        finish(true);
        return;
      }
      // Duplicate upload: the sealed name must now be refused at HELLO.
      std::string dup_error;
      auto dup = Client::connect(ingest_options(config, index), &dup_error);
      const bool refused =
          dup == nullptr && dup_error.find("exists") != std::string::npos;
      if (!refused)
        outcome.error = "duplicate upload was not refused: " + dup_error;
      finish(refused);
      return;
    }
    case Behavior::kDisconnect: {
      // Upload roughly half, then vanish without SEAL: the server must
      // discard the partial record.
      const std::size_t half = jobs.size() / 2;
      bool sent = true;
      for (std::size_t off = 0; sent && off < half; off += per_batch) {
        const std::size_t end = std::min(off + per_batch, half);
        sent = client->put(slice(off, end));
      }
      finish(sent);
      client.reset();  // abrupt close, no BYE, no SEAL
      return;
    }
    case Behavior::kGarbage: {
      bool sent = true;
      if (!jobs.empty())
        sent = client->put(slice(0, std::min(per_batch, jobs.size())));
      std::vector<std::uint8_t> noise(64);
      for (auto& byte : noise)
        byte = static_cast<std::uint8_t>(rng.bounded(256));
      noise[0] = 0x00;  // never a valid frame magic
      sent = sent && client->send_raw(noise);
      // The server must answer ERROR (bad message) and close; the session
      // dying on our side is the expected outcome.
      const bool rejected = !client->seal(nullptr);
      if (!rejected) outcome.error = "garbage bytes were accepted";
      finish(sent && rejected);
      return;
    }
    case Behavior::kOversized: {
      WireFrame frame;
      frame.key = runtime::StreamKey{0, 0};
      frame.job.codec = 0x01;
      frame.job.compress = false;
      frame.job.payload.assign(
          static_cast<std::size_t>(Limits{}.max_frame_bytes + 1), 0xAB);
      const bool sent = client->put({std::move(frame)});
      const bool rejected = !client->seal(nullptr);
      if (!rejected) outcome.error = "oversized frame was accepted";
      finish(sent && rejected);
      return;
    }
  }
}

void verify_outcomes(const LoadConfig& config,
                     const std::vector<ClientOutcome>& outcomes,
                     LoadReport& report) {
  const fs::path tenant_dir = fs::path(config.server_root) / config.tenant;
  const fs::path scratch = config.scratch_dir.empty()
                               ? tenant_dir / ".verify"
                               : fs::path(config.scratch_dir);
  std::error_code ec;
  fs::create_directories(scratch, ec);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ClientOutcome& outcome = outcomes[i];
    const std::string server_path =
        (tenant_dir / (record_name(i) + ".cdcc")).string();
    if (!outcome.sealed) {
      // Never sealed: the name must refer to nothing. The server discards
      // the partial when it tears the session down, which can finish after
      // the client has seen its error or closed, so allow it a grace period.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (fs::exists(server_path) &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (fs::exists(server_path)) {
        ++report.verify_failures;
        report.errors.push_back(record_name(i) +
                                ": unsealed record present on server");
      }
      continue;
    }
    const std::vector<WireFrame> jobs = synth_jobs(
        client_seed(config.seed, i), config.shape, outcome.level);
    const std::string local_path =
        (scratch / (record_name(i) + ".cdcc")).string();
    std::string why;
    if (!write_synth_container(local_path, jobs, &why) ||
        !same_file_bytes(server_path, local_path, &why)) {
      ++report.verify_failures;
      report.errors.push_back(record_name(i) + ": " + why);
    } else {
      ++report.verified;
    }
    fs::remove(local_path, ec);
  }
}

double quantile_ms(std::vector<std::uint64_t>& sorted_ns, double p) {
  if (sorted_ns.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ns.size() - 1));
  return static_cast<double>(sorted_ns[index]) / 1e6;
}

}  // namespace

std::uint64_t client_seed(std::uint64_t run_seed, std::size_t client) {
  return run_seed ^ (0x9e3779b97f4a7c15ull * (client + 1));
}

bool same_file_bytes(const std::string& a, const std::string& b,
                     std::string* why) {
  const auto ba = support::read_file(a);
  const auto bb = support::read_file(b);
  if (!ba.has_value() || !bb.has_value()) {
    *why = "cannot open for compare";
    return false;
  }
  if (*ba == *bb) return true;
  *why = "containers differ (" + std::to_string(ba->size()) + " vs " +
         std::to_string(bb->size()) + " bytes)";
  return false;
}

std::vector<WireFrame> synth_jobs(std::uint64_t seed, const SynthShape& shape,
                                  compress::DeflateLevel level) {
  support::Xoshiro256 rng(seed);
  std::vector<WireFrame> jobs;
  jobs.reserve(shape.batches * shape.frames_per_batch);
  const std::size_t streams = std::max<std::size_t>(shape.streams, 1);
  for (std::size_t b = 0; b < shape.batches; ++b) {
    for (std::size_t f = 0; f < shape.frames_per_batch; ++f) {
      const std::size_t stream = (b * shape.frames_per_batch + f) % streams;
      WireFrame sj;
      sj.key.rank = static_cast<minimpi::Rank>(stream);
      sj.key.callsite = 7;
      sj.job.codec = 0x01;
      sj.job.meta = 0;
      sj.job.compress = true;
      sj.job.level = level;
      sj.job.payload.resize(shape.payload_bytes);
      // Runs of repeated bytes with random lengths: compressible but not
      // trivially so, and fully determined by the seed.
      std::size_t at = 0;
      while (at < sj.job.payload.size()) {
        const auto byte = static_cast<std::uint8_t>(rng.bounded(32));
        const std::size_t run =
            std::min<std::size_t>(1 + rng.bounded(48),
                                  sj.job.payload.size() - at);
        std::fill_n(sj.job.payload.begin() +
                        static_cast<std::ptrdiff_t>(at),
                    run, byte);
        at += run;
      }
      if (shape.epochs) {
        runtime::EpochMeta meta;
        meta.matched = 1 + rng.bounded(64);
        meta.unmatched = rng.bounded(8);
        sj.job.epoch = meta;
      }
      jobs.push_back(std::move(sj));
    }
  }
  return jobs;
}

bool write_synth_container(const std::string& path,
                           const std::vector<WireFrame>& jobs,
                           std::string* error) {
  try {
    store::ContainerStore store(path);
    tool::InlineFrameSink sink(&store);
    for (const WireFrame& sj : jobs) sink.submit(sj.key, sj.job);
    store.seal();
    return true;
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

LoadReport run_load(const LoadConfig& config) {
  LoadReport report;
  report.clients = config.clients;
  std::vector<ClientOutcome> outcomes(config.clients);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(config.clients);
    for (std::size_t i = 0; i < config.clients; ++i)
      threads.emplace_back(
          [&config, i, &outcomes] { run_client(config, i, outcomes[i]); });
    for (std::thread& t : threads) t.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  report.duration_s =
      std::chrono::duration<double>(t1 - t0).count();

  std::vector<std::uint64_t> latencies;
  for (const ClientOutcome& outcome : outcomes) {
    report.frames_acked += outcome.frames_acked;
    report.raw_bytes_acked += outcome.bytes_acked;
    latencies.insert(latencies.end(), outcome.latency_ns.begin(),
                     outcome.latency_ns.end());
    if (outcome.ok) {
      if (outcome.sealed) ++report.sealed;
      if (outcome.behavior == Behavior::kDisconnect ||
          outcome.behavior == Behavior::kDuplicate ||
          outcome.behavior == Behavior::kGarbage ||
          outcome.behavior == Behavior::kOversized)
        ++report.expected_failures;
    } else {
      ++report.unexpected_failures;
      report.errors.push_back(outcome.error.empty() ? "unknown failure"
                                                    : outcome.error);
    }
  }
  std::sort(latencies.begin(), latencies.end());
  report.latency_samples = latencies.size();
  report.ack_p50_ms = quantile_ms(latencies, 0.50);
  report.ack_p95_ms = quantile_ms(latencies, 0.95);
  report.ack_p99_ms = quantile_ms(latencies, 0.99);
  if (report.duration_s > 0) {
    report.frames_per_s =
        static_cast<double>(report.frames_acked) / report.duration_s;
    report.mb_per_s = static_cast<double>(report.raw_bytes_acked) /
                      (1024.0 * 1024.0) / report.duration_s;
  }
  if (!config.server_root.empty())
    verify_outcomes(config, outcomes, report);
  return report;
}

}  // namespace cdc::net
