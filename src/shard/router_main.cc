// topodb_router: the shard-routing daemon. Fronts a fleet of
// topodb_server backends with the same wire protocol they speak, so
// topodb_client points at the router unchanged (DESIGN.md §5i).
//
//   topodb_router --port 7100 --shard a=7101 --shard b=7102
//
// SIGTERM/SIGINT drain gracefully: in-flight requests finish, then the
// process exits 0.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/shard/router.h"

namespace {

std::atomic<int> g_signal{0};

void HandleSignal(int sig) { g_signal.store(sig); }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --shard [ID=]PORT [--shard [ID=]PORT ...] [options]\n"
      "  --port N             front port (default: ephemeral, printed)\n"
      "  --shard [ID=]PORT    backend topodb_server (repeatable; default\n"
      "                       ids shard0, shard1, ... in flag order)\n"
      "  --vnodes N           virtual nodes per shard (default 64)\n"
      "  --health-ms N        health-probe interval (default 200)\n"
      "  --probe-budget-ms N  per-probe budget: dial, PING, reply\n"
      "                       (default 1000)\n"
      "  --no-health          disable the background health checker\n",
      argv0);
}

bool ParsePort(const char* text, uint16_t* out) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < 1 || v > 65535) return false;
  *out = static_cast<uint16_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  topodb::RouterOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr || !ParsePort(v, &options.port)) {
        std::fprintf(stderr, "%s: --port needs a port number\n", argv[0]);
        return 2;
      }
    } else if (arg == "--shard") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "%s: --shard needs [ID=]PORT\n", argv[0]);
        return 2;
      }
      topodb::ShardEndpoint endpoint;
      const char* eq = std::strchr(v, '=');
      const char* port_text = v;
      if (eq != nullptr) {
        endpoint.id.assign(v, eq - v);
        port_text = eq + 1;
      } else {
        endpoint.id = "shard" + std::to_string(options.shards.size());
      }
      if (endpoint.id.empty() || !ParsePort(port_text, &endpoint.port)) {
        std::fprintf(stderr, "%s: bad --shard value '%s'\n", argv[0], v);
        return 2;
      }
      options.shards.push_back(std::move(endpoint));
    } else if (arg == "--vnodes") {
      const char* v = next();
      if (v == nullptr || std::atoi(v) < 1) {
        std::fprintf(stderr, "%s: --vnodes needs a positive count\n",
                     argv[0]);
        return 2;
      }
      options.vnodes = std::atoi(v);
    } else if (arg == "--health-ms") {
      const char* v = next();
      if (v == nullptr || std::atoi(v) < 1) {
        std::fprintf(stderr, "%s: --health-ms needs a positive count\n",
                     argv[0]);
        return 2;
      }
      options.health_interval = std::chrono::milliseconds(std::atoi(v));
    } else if (arg == "--probe-budget-ms") {
      const char* v = next();
      if (v == nullptr || std::atoi(v) < 1) {
        std::fprintf(stderr, "%s: --probe-budget-ms needs a positive count\n",
                     argv[0]);
        return 2;
      }
      options.health_probe_budget_ms =
          static_cast<uint32_t>(std::atoi(v));
    } else if (arg == "--no-health") {
      options.health_checker = false;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  if (options.shards.empty()) {
    std::fprintf(stderr, "%s: at least one --shard is required\n", argv[0]);
    Usage(argv[0]);
    return 2;
  }

  topodb::TopoDbRouter router(std::move(options));
  const topodb::Status started = router.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], started.ToString().c_str());
    return topodb::ExitCodeForStatus(started);
  }
  std::printf("topodb_router listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(router.port()));
  std::fflush(stdout);

  struct sigaction action {};
  action.sa_handler = HandleSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  while (g_signal.load() == 0) pause();

  const topodb::Status drained = router.Shutdown();
  if (!drained.ok()) {
    std::fprintf(stderr, "%s: shutdown: %s\n", argv[0],
                 drained.ToString().c_str());
    return topodb::ExitCodeForStatus(drained);
  }
  std::printf("topodb_router drained cleanly\n");
  return 0;
}
