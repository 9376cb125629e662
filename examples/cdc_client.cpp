// cdc_client — command-line client for the record/replay service.
//
// Subcommands (all need --host/--port/--token):
//   put REC FILE.cdcc   upload a local sealed container as record REC:
//                       each source frame is re-framed at the negotiated
//                       level, so the copy is byte-identical when that is
//                       the level the source was recorded at
//   window REC LO:HI    fetch epochs [LO, HI) of every stream; prints one
//                       line per stream: key, first_epoch, seeked, bytes
//   inspect REC KIND    print the verify | pipeline | gaps JSON report
//   load                run the seeded load generator against the server
//                       (see --clients/--seed/--faults below)
//
// Numeric flags take whole unsigned decimals in the ranges the usage text
// states; anything else (a sign, trailing text, out of range) exits 2
// with the usage text before any connection or thread is made.
//
// Exit codes: 0 success, 1 server/protocol error, 2 usage.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/client.h"
#include "net/load_gen.h"
#include "parse_number.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --host H --port P --token T [--level L]\n"
      "          [--timeout-ms N] [--connect-timeout-ms N]\n"
      "          [--retries N] [--resume] COMMAND...\n"
      "  put REC FILE.cdcc        upload a sealed container as record REC;\n"
      "                           each frame is re-framed at the negotiated\n"
      "                           level (byte-identical at the recording's)\n"
      "  window REC LO:HI         fetch epoch window [LO, HI)\n"
      "  inspect REC verify|pipeline|gaps\n"
      "  load [--clients N] [--seed S] [--batches N] [--frames N]\n"
      "       [--payload BYTES] [--faults slow,disc,dup,garbage,oversized]\n"
      "       [--tenant NAME --server-root DIR]\n"
      "                           (with both set, surviving records are\n"
      "                           byte-verified against a local rebuild)\n"
      "Numbers are whole unsigned decimals: --port in [1, 65535],\n"
      "--clients in [1, 1024], --timeout-ms, --connect-timeout-ms\n"
      "and --retries at most 4294967295, --batches and --frames in\n"
      "[1, 1000000], --payload in [1, 16777216], each --faults\n"
      "percentage at most 100, LO < HI.\n",
      argv0);
}

/// Parses "LO:HI" as two whole unsigned decimals with LO < HI.
bool parse_window(const std::string& spec, std::uint64_t& lo,
                  std::uint64_t& hi) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) return false;
  const std::string lo_text = spec.substr(0, colon);
  const std::string hi_text = spec.substr(colon + 1);
  unsigned long long a = 0;
  unsigned long long b = 0;
  if (!cdc::cli::parse_number(lo_text.c_str(), 0, ULLONG_MAX, &a) ||
      !cdc::cli::parse_number(hi_text.c_str(), 0, ULLONG_MAX, &b) || a >= b)
    return false;
  lo = a;
  hi = b;
  return true;
}

int cmd_put(const cdc::net::Client::Options& base, const std::string& record,
            const std::string& path) {
  cdc::net::Client::Options options = base;
  options.record = record;
  cdc::net::Sealed sealed;
  std::string error;
  if (!cdc::net::put_container(options, path, &sealed, &error)) {
    std::fprintf(stderr, "cdc_client: %s\n", error.c_str());
    return 1;
  }
  std::printf("sealed %s: %llu streams, %llu frames, %llu bytes\n",
              record.c_str(), static_cast<unsigned long long>(sealed.streams),
              static_cast<unsigned long long>(sealed.frames),
              static_cast<unsigned long long>(sealed.container_bytes));
  return 0;
}

int cmd_window(const cdc::net::Client::Options& base,
               const std::string& record, const std::string& spec) {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  if (!parse_window(spec, lo, hi)) {
    std::fprintf(stderr, "cdc_client: bad window '%s' (need LO:HI, LO < HI)\n",
                 spec.c_str());
    return 2;
  }
  cdc::net::Client::Options options = base;
  options.record = record;
  options.intent = cdc::net::Intent::kReplay;
  std::string error;
  auto client = cdc::net::Client::connect(options, &error);
  if (client == nullptr) {
    std::fprintf(stderr, "cdc_client: %s\n", error.c_str());
    return 1;
  }
  std::vector<cdc::net::WindowStream> streams;
  cdc::net::WindowDone done;
  if (!client->replay_window(lo, hi, &streams, &done)) {
    std::fprintf(stderr, "cdc_client: %s\n", client->last_error().c_str());
    return 1;
  }
  client->bye();
  for (const cdc::net::WindowStream& ws : streams)
    std::printf("rank %lld callsite %llu first_epoch %llu seeked %d "
                "bytes %zu\n",
                static_cast<long long>(ws.key.rank),
                static_cast<unsigned long long>(ws.key.callsite),
                static_cast<unsigned long long>(ws.first_epoch),
                ws.seeked ? 1 : 0, ws.bytes.size());
  std::printf("done: %llu streams, all_seeked %d\n",
              static_cast<unsigned long long>(done.streams),
              done.all_seeked ? 1 : 0);
  return 0;
}

int cmd_inspect(const cdc::net::Client::Options& base,
                const std::string& record, const std::string& kind_name) {
  cdc::net::InspectKind kind;
  if (kind_name == "verify") kind = cdc::net::InspectKind::kVerify;
  else if (kind_name == "pipeline") kind = cdc::net::InspectKind::kPipeline;
  else if (kind_name == "gaps") kind = cdc::net::InspectKind::kGaps;
  else {
    std::fprintf(stderr, "cdc_client: bad inspect kind '%s'\n",
                 kind_name.c_str());
    return 2;
  }
  cdc::net::Client::Options options = base;
  options.record = record;
  options.intent = cdc::net::Intent::kReplay;
  std::string error;
  auto client = cdc::net::Client::connect(options, &error);
  if (client == nullptr) {
    std::fprintf(stderr, "cdc_client: %s\n", error.c_str());
    return 1;
  }
  std::string json;
  if (!client->inspect(kind, &json)) {
    std::fprintf(stderr, "cdc_client: %s\n", client->last_error().c_str());
    return 1;
  }
  client->bye();
  std::fputs(json.c_str(), stdout);
  return 0;
}

/// Parses "A,B,C,D,E" as five whole decimals, each at most 100.
bool parse_faults(const char* text, cdc::net::FaultPlan& faults) {
  std::uint32_t* const fields[] = {
      &faults.slow_pct, &faults.disconnect_pct, &faults.duplicate_pct,
      &faults.garbage_pct, &faults.oversized_pct};
  std::string rest = text == nullptr ? "" : text;
  for (std::size_t f = 0; f < 5; ++f) {
    const std::size_t comma = f < 4 ? rest.find(',') : rest.size();
    if (comma == std::string::npos) return false;
    unsigned long long pct = 0;
    if (!cdc::cli::parse_number(rest.substr(0, comma).c_str(), 0, 100, &pct))
      return false;
    *fields[f] = static_cast<std::uint32_t>(pct);
    rest.erase(0, f < 4 ? comma + 1 : comma);
  }
  return true;
}

// Consumes flags from argv starting at `i`, stopping at the first
// non-flag argument (the subcommand) or the end. Returns false on a
// malformed flag, naming it. Called twice: once before the subcommand and
// once after it, so `load --clients 24` and `--clients 24 load` both work.
bool parse_flags(int argc, char** argv, int& i,
                 cdc::net::Client::Options& base,
                 cdc::net::LoadConfig& load) {
  constexpr unsigned long long kU32 = 0xFFFFFFFFull;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Reads this flag's value as a number in [lo, hi]; on failure names
    // the flag (the caller prints the usage text and exits 2).
    unsigned long long n = 0;
    const auto number = [&](unsigned long long lo, unsigned long long hi) {
      const char* v = next();
      if (cdc::cli::parse_number(v, lo, hi, &n)) return true;
      std::fprintf(stderr, "cdc_client: bad %s value '%s'\n", arg.c_str(),
                   v == nullptr ? "" : v);
      return false;
    };
    if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return false;
      base.host = v;
    } else if (arg == "--port") {
      if (!number(1, 65535)) return false;
      base.port = static_cast<std::uint16_t>(n);
    } else if (arg == "--token") {
      const char* v = next();
      if (v == nullptr) return false;
      base.token = v;
    } else if (arg == "--level") {
      const char* v = next();
      const auto level = v == nullptr
                             ? std::nullopt
                             : cdc::compress::deflate_level_from_name(v);
      if (!level.has_value()) return false;
      base.level = *level;
    } else if (arg == "--timeout-ms") {
      if (!number(0, kU32)) return false;
      base.timeout_ms = static_cast<std::uint32_t>(n);
    } else if (arg == "--connect-timeout-ms") {
      if (!number(0, kU32)) return false;
      base.connect_timeout_ms = static_cast<std::uint32_t>(n);
    } else if (arg == "--retries") {
      if (!number(0, kU32)) return false;
      base.max_reconnects = static_cast<std::uint32_t>(n);
    } else if (arg == "--resume") {
      base.resumable = true;
    } else if (arg == "--clients") {
      // One thread per client: the cap keeps a typo from starting
      // thousands of them.
      if (!number(1, 1024)) return false;
      load.clients = static_cast<std::size_t>(n);
    } else if (arg == "--seed") {
      if (!number(0, ULLONG_MAX)) return false;
      load.seed = n;
    } else if (arg == "--batches") {
      if (!number(1, 1000000)) return false;
      load.shape.batches = static_cast<std::size_t>(n);
    } else if (arg == "--frames") {
      if (!number(1, 1000000)) return false;
      load.shape.frames_per_batch = static_cast<std::size_t>(n);
    } else if (arg == "--payload") {
      if (!number(1, 16u << 20)) return false;
      load.shape.payload_bytes = static_cast<std::size_t>(n);
    } else if (arg == "--tenant") {
      const char* v = next();
      if (v == nullptr) return false;
      load.tenant = v;
    } else if (arg == "--server-root") {
      const char* v = next();
      if (v == nullptr) return false;
      load.server_root = v;
    } else if (arg == "--faults") {
      const char* v = next();
      if (!parse_faults(v, load.faults)) {
        std::fprintf(stderr, "cdc_client: bad --faults value '%s'\n",
                     v == nullptr ? "" : v);
        return false;
      }
    } else {
      break;  // first non-flag: the subcommand
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  cdc::net::Client::Options base;
  cdc::net::LoadConfig load;
  int i = 1;
  if (!parse_flags(argc, argv, i, base, load) || i >= argc ||
      base.port == 0 || base.token.empty()) {
    usage(argv[0]);
    return 2;
  }
  const std::string command = argv[i++];
  if (command == "put" && i + 1 < argc)
    return cmd_put(base, argv[i], argv[i + 1]);
  if (command == "window" && i + 1 < argc) {
    const int rc = cmd_window(base, argv[i], argv[i + 1]);
    if (rc == 2) usage(argv[0]);  // a malformed LO:HI
    return rc;
  }
  if (command == "inspect" && i + 1 < argc)
    return cmd_inspect(base, argv[i], argv[i + 1]);
  if (command == "load") {
    // load is the only subcommand with trailing flags; a second pass
    // picks them up and anything left over is a usage error.
    if (!parse_flags(argc, argv, i, base, load) || i != argc) {
      usage(argv[0]);
      return 2;
    }
    load.host = base.host;
    load.port = base.port;
    load.token = base.token;
    load.level = base.level;
    const cdc::net::LoadReport report = cdc::net::run_load(load);
    std::printf(
        "load: %zu clients, %zu sealed, %zu expected failures, "
        "%zu unexpected, %.0f frames/s, %.2f MB/s, "
        "ack p50/p95/p99 %.2f/%.2f/%.2f ms\n",
        report.clients, report.sealed, report.expected_failures,
        report.unexpected_failures, report.frames_per_s, report.mb_per_s,
        report.ack_p50_ms, report.ack_p95_ms, report.ack_p99_ms);
    if (!load.server_root.empty())
      std::printf("load: %zu verified against local rebuild, %zu failures\n",
                  report.verified, report.verify_failures);
    for (const std::string& e : report.errors)
      std::fprintf(stderr, "  %s\n", e.c_str());
    return report.ok() ? 0 : 1;
  }
  usage(argv[0]);
  return 2;
}
