// Standalone TopoDB server daemon. Binds a loopback port (ephemeral by
// default), prints the bound address on stdout so scripts can parse it,
// and drains gracefully on SIGINT/SIGTERM — exit code 0 means every
// admitted request was answered before the process left.
//
// Usage: topodb_server [--port N] [--workers N] [--queue N] [--drain-ms N]
//                      [--catalog DIR] [--no-plan] [--no-semcache]
//                      [--semcache-entries N] [--no-textcache]
//                      [--text-cache-entries N]
//
// With --catalog, the instance catalog under DIR is opened (corrupt files
// skipped with a stderr report) before binding the port, so the LOAD /
// LIST / DESCRIBE opcodes and catalog-name instance refs are live from
// the first accepted connection.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "src/obs/metrics.h"
#include "src/server/server.h"
#include "src/store/catalog.h"

namespace {

std::sig_atomic_t volatile g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

long ParseLongOrDie(const char* flag, const char* value) {
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 0) {
    std::fprintf(stderr, "topodb_server: bad value for %s: %s\n", flag,
                 value);
    std::exit(2);
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  topodb::ServerOptions options;
  std::string catalog_dir;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--port") == 0 && has_value) {
      options.port = static_cast<uint16_t>(ParseLongOrDie(arg, argv[++i]));
    } else if (std::strcmp(arg, "--workers") == 0 && has_value) {
      options.num_workers = static_cast<int>(ParseLongOrDie(arg, argv[++i]));
    } else if (std::strcmp(arg, "--queue") == 0 && has_value) {
      options.max_queue_depth =
          static_cast<size_t>(ParseLongOrDie(arg, argv[++i]));
    } else if (std::strcmp(arg, "--drain-ms") == 0 && has_value) {
      options.drain_timeout =
          std::chrono::milliseconds(ParseLongOrDie(arg, argv[++i]));
    } else if (std::strcmp(arg, "--catalog") == 0 && has_value) {
      catalog_dir = argv[++i];
    } else if (std::strcmp(arg, "--no-plan") == 0) {
      options.plan_queries = false;
    } else if (std::strcmp(arg, "--no-semcache") == 0) {
      options.semantic_cache_entries = 0;
    } else if (std::strcmp(arg, "--semcache-entries") == 0 && has_value) {
      options.semantic_cache_entries =
          static_cast<size_t>(ParseLongOrDie(arg, argv[++i]));
    } else if (std::strcmp(arg, "--no-textcache") == 0) {
      options.text_cache_entries = 0;
    } else if (std::strcmp(arg, "--text-cache-entries") == 0 && has_value) {
      options.text_cache_entries =
          static_cast<size_t>(ParseLongOrDie(arg, argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: topodb_server [--port N] [--workers N] "
                   "[--queue N] [--drain-ms N] [--catalog DIR] "
                   "[--no-plan] [--no-semcache] [--semcache-entries N] "
                   "[--no-textcache] [--text-cache-entries N]\n");
      return 2;
    }
  }

  // One registry shared by the serving stages and the catalog, so the
  // METRICS opcode exports catalog hit/miss/ingest counters alongside the
  // request-path metrics.
  topodb::MetricsRegistry registry;
  options.metrics = &registry;

  std::unique_ptr<topodb::Catalog> catalog;
  if (!catalog_dir.empty()) {
    topodb::CatalogOptions catalog_options;
    catalog_options.directory = catalog_dir;
    catalog_options.metrics = &registry;
    topodb::CatalogScanReport report;
    auto opened = topodb::Catalog::Open(catalog_options, &report);
    if (!opened.ok()) {
      std::fprintf(stderr, "topodb_server: catalog: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    catalog = std::move(opened).value();
    options.catalog = catalog.get();
    std::printf(
        "topodb_server catalog %s: %zu loaded, %zu corrupt skipped, "
        "%zu stray tmp removed\n",
        catalog_dir.c_str(), report.loaded, report.skipped_corrupt,
        report.removed_tmp);
  }

  topodb::TopoDbServer server(options);
  const topodb::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "topodb_server: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("topodb_server listening on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  const topodb::Status drained = server.Shutdown();
  if (!drained.ok()) {
    std::fprintf(stderr, "topodb_server: shutdown: %s\n",
                 drained.ToString().c_str());
    return 1;
  }
  std::printf("topodb_server drained cleanly\n");
  return 0;
}
