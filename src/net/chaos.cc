#include "net/chaos.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "store/container_reader.h"

namespace cdc::net {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Deadline for a started daemon to print LISTENING.
constexpr double kStartTimeoutMs = 15000;
/// Reconnect budget per client — generous, because every client rides
/// out the same daemon death.
constexpr std::uint32_t kClientRetries = 12;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

std::string record_name(std::size_t client) {
  return "chaos-" + std::to_string(client);
}

struct ClientResult {
  bool sealed = false;
  compress::DeflateLevel level = compress::DeflateLevel::kDefault;
  std::uint64_t reconnects = 0;
  std::uint64_t batches_resent = 0;
  std::string error;
};

/// One resuming uploader: connect (with its own dial-retry loop, since the
/// daemon may be mid-restart), stream the deterministic job list, seal.
/// The Client's internal recover() handles any daemon death in between.
void chaos_client(const ChaosConfig& config, std::uint16_t port,
                  std::size_t index, ClientResult& result) {
  Client::Options options;
  options.host = "127.0.0.1";
  options.port = port;
  options.token = config.token;
  options.record = record_name(index);
  options.intent = Intent::kIngest;
  options.level = config.level;
  options.timeout_ms = 10000;
  options.connect_timeout_ms = 5000;
  options.resumable = true;
  options.max_reconnects = kClientRetries;
  options.backoff_seed = client_seed(config.seed, index);

  std::unique_ptr<Client> client;
  std::string error;
  for (std::uint32_t attempt = 0; attempt <= kClientRetries; ++attempt) {
    client = Client::connect(options, &error);
    if (client != nullptr) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50 * (attempt + 1)));
  }
  if (client == nullptr) {
    result.error = "connect: " + error;
    return;
  }
  result.level = client->welcome().level;
  const std::vector<WireFrame> jobs = synth_jobs(
      client_seed(config.seed, index), config.shape, client->welcome().level);
  const std::size_t per_batch = config.shape.frames_per_batch;
  bool sent = true;
  for (std::size_t off = 0; sent && off < jobs.size(); off += per_batch) {
    const std::size_t end = std::min(off + per_batch, jobs.size());
    sent = client->put(
        std::vector<WireFrame>(jobs.begin() + off, jobs.begin() + end));
  }
  Sealed sealed;
  result.sealed = sent && client->seal(&sealed);
  result.reconnects = client->reconnects();
  result.batches_resent = client->batches_resent();
  if (!result.sealed) result.error = client->last_error();
  client->bye();
}

std::vector<std::string> daemon_args(const ChaosConfig& config,
                                     const std::string& root,
                                     std::uint16_t port,
                                     const std::vector<std::string>& crash) {
  std::vector<std::string> args = {
      "--root",   root,
      "--tenant", config.tenant + ":" + config.token + ":1024:256",
      "--port",   std::to_string(port),
      "--drain-timeout-ms", "10000",
  };
  args.insert(args.end(), crash.begin(), crash.end());
  return args;
}

}  // namespace

// --- DaemonHarness -------------------------------------------------------

DaemonHarness::~DaemonHarness() { kill_now(); }

bool DaemonHarness::start(const DaemonOptions& options, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "daemon: " + why;
    return false;
  };
  if (pid_ >= 0 && running()) return fail("already running");
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) return fail(std::strerror(errno));
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return fail(std::strerror(errno));
  }
  if (pid == 0) {
    // Child: stdout → pipe, then exec the daemon.
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(options.binary.c_str()));
    for (const std::string& arg : options.args)
      argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(options.binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  pid_ = pid;
  out_fd_ = pipe_fds[0];
  exited_ = false;
  status_ = 0;
  port_ = 0;

  // Handshake: read until "LISTENING <port>" or the deadline. The child
  // keeps the pipe for later output; only the first line matters here.
  std::string line;
  const Clock::time_point t0 = Clock::now();
  while (ms_since(t0) < kStartTimeoutMs) {
    pollfd pfd{out_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) {
      if (!running()) return fail("exited before LISTENING");
      continue;
    }
    char byte = 0;
    const ssize_t n = ::read(out_fd_, &byte, 1);
    if (n <= 0) return fail("stdout closed before LISTENING");
    if (byte != '\n') {
      line.push_back(byte);
      continue;
    }
    unsigned parsed = 0;
    if (std::sscanf(line.c_str(), "LISTENING %u", &parsed) == 1) {
      port_ = static_cast<std::uint16_t>(parsed);
      return true;
    }
    line.clear();
  }
  return fail("no LISTENING line within deadline");
}

bool DaemonHarness::running() {
  if (pid_ < 0 || exited_) return false;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == pid_) {
    exited_ = true;
    status_ = status;
    return false;
  }
  return r == 0;
}

bool DaemonHarness::wait_exit(std::uint32_t timeout_ms, int* status) {
  const Clock::time_point t0 = Clock::now();
  while (running()) {
    if (ms_since(t0) >= timeout_ms) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (pid_ < 0) return false;
  if (status != nullptr) *status = status_;
  return true;
}

void DaemonHarness::kill_now() {
  if (pid_ >= 0 && !exited_) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    exited_ = true;
    status_ = status;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

bool DaemonHarness::terminate(std::uint32_t timeout_ms, int* exit_code) {
  if (pid_ < 0) return false;
  if (!exited_) ::kill(pid_, SIGTERM);
  const bool done = wait_exit(timeout_ms, nullptr);
  if (done && exit_code != nullptr)
    *exit_code = WIFEXITED(status_) ? WEXITSTATUS(status_) : -1;
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  return done;
}

// --- the sweep -----------------------------------------------------------

ChaosReport run_chaos(const ChaosConfig& config) {
  struct Point {
    const char* name;
    std::vector<std::string> crash;
    bool sigterm = false;  ///< harness-driven SIGTERM instead of a crash flag
  };
  const std::string batch = std::to_string(config.crash_batch);
  const std::vector<Point> points = {
      {"mid-batch", {"--crash-sync-batch", batch}, false},
      {"pre-ack", {"--crash-ack-batch", batch}, false},
      {"pre-seal", {"--crash-before-seal"}, false},
      {"post-seal", {"--crash-after-seal"}, false},
      {"sigterm-under-load", {}, true},
  };

  ChaosReport report;
  for (const Point& point : points) {
    ChaosPointResult result;
    result.name = point.name;
    const Clock::time_point point_t0 = Clock::now();
    const std::string root =
        (fs::path(config.root_dir) / point.name).string();
    std::error_code ec;
    fs::remove_all(root, ec);
    fs::create_directories(root, ec);

    DaemonHarness daemon;
    DaemonOptions opts;
    opts.binary = config.binary;
    opts.args = daemon_args(config, root, 0, point.crash);
    std::string error;
    if (!daemon.start(opts, &error)) {
      result.errors.push_back(error);
      report.points.push_back(std::move(result));
      continue;
    }
    const std::uint16_t port = daemon.port();

    std::vector<ClientResult> outcomes(config.clients);
    std::vector<std::thread> threads;
    threads.reserve(config.clients);
    for (std::size_t i = 0; i < config.clients; ++i)
      threads.emplace_back(
          [&, i] { chaos_client(config, port, i, outcomes[i]); });

    // Supervise the death. Crash-flag points kill themselves; the SIGTERM
    // point is killed from here, mid-upload.
    bool restarted = false;
    if (point.sigterm) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      int exit_code = -1;
      if (!daemon.terminate(15000, &exit_code))
        result.errors.push_back("SIGTERM: daemon did not exit");
      else if (exit_code != 0)
        result.errors.push_back("SIGTERM: exit code " +
                                std::to_string(exit_code));
    } else {
      int status = 0;
      if (!daemon.wait_exit(30000, &status)) {
        result.errors.push_back("crash flag never fired");
      } else if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
        result.errors.push_back("daemon died, but not by SIGKILL");
      }
    }
    // Restart on the same port, crash flags disarmed; resuming clients
    // find the replacement via their reconnect loop.
    const Clock::time_point dead_at = Clock::now();
    if (result.errors.empty()) {
      opts.args = daemon_args(config, root, port, {});
      restarted = daemon.start(opts, &error);
      if (!restarted) result.errors.push_back("restart: " + error);
      result.restart_ms = ms_since(dead_at);
    }

    for (std::thread& t : threads) t.join();

    for (std::size_t i = 0; i < config.clients; ++i) {
      const ClientResult& outcome = outcomes[i];
      result.reconnects += outcome.reconnects;
      result.batches_resent += outcome.batches_resent;
      if (outcome.sealed)
        ++result.sealed;
      else
        result.errors.push_back(record_name(i) + ": " + outcome.error);
    }

    // Graceful finish: the replacement daemon must drain out with exit 0.
    if (restarted) {
      int exit_code = -1;
      if (!daemon.terminate(15000, &exit_code))
        result.errors.push_back("final SIGTERM: daemon did not exit");
      else if (exit_code != 0)
        result.errors.push_back("final SIGTERM: exit code " +
                                std::to_string(exit_code));
    }

    // Oracle verification: every sealed record must be byte-identical to
    // a local rebuild from the seed, and pass a full frame-CRC sweep.
    const fs::path tenant_dir = fs::path(root) / config.tenant;
    const fs::path scratch = fs::path(root) / ".verify";
    fs::create_directories(scratch, ec);
    for (std::size_t i = 0; i < config.clients; ++i) {
      if (!outcomes[i].sealed) continue;
      const std::string server_path =
          (tenant_dir / (record_name(i) + ".cdcc")).string();
      const std::string local_path =
          (scratch / (record_name(i) + ".cdcc")).string();
      const std::vector<WireFrame> jobs = synth_jobs(
          client_seed(config.seed, i), config.shape, outcomes[i].level);
      std::string why;
      if (!write_synth_container(local_path, jobs, &why) ||
          !same_file_bytes(server_path, local_path, &why)) {
        result.errors.push_back(record_name(i) + ": " + why);
        continue;
      }
      auto reader = store::ContainerReader::open(server_path, &why);
      if (reader == nullptr || !reader->index_ok() || !reader->verify().ok) {
        result.errors.push_back(record_name(i) + ": verify failed");
        continue;
      }
      ++result.verified;
    }

    result.wall_ms = ms_since(point_t0);
    result.passed = result.errors.empty() &&
                    result.sealed == config.clients &&
                    result.verified == config.clients;
    report.points.push_back(std::move(result));
  }
  return report;
}

}  // namespace cdc::net
