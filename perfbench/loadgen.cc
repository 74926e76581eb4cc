// perfbench_loadgen: runs one ledger workload against the real daemons.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                    --bin DIR --work DIR --out FILE [--inject-wrong]
//
// Builds the workload's inputs and truth in-process, launches
// topodb_server (and topodb_router for the routed workload) from --bin,
// sets up five times (launch, preload, warm-up) and times the last one's
// requests for S seconds, reads every daemon's METRICS and peak RSS, runs
// the durability check where the workload has one, and with --trace 1 the
// traced replay. Raw samples go to --out as JSON; perfbench/run.py turns
// them into the ledger's metrics. --inject-wrong corrupts one expected
// answer, so the run must report a wrong response.

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/inputs.h"
#include "perfbench/replay.h"
#include "src/client/client.h"
#include "src/server/wire.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- Daemons ------------------------------------------------------------------

// A spawned topodb_server / topodb_router. The daemon prints its bound port
// on stdout; the pipe stays open until the daemon is stopped.
struct Daemon {
  std::string label;
  pid_t pid = -1;
  int out_fd = -1;
  uint16_t port = 0;
};

Daemon Spawn(const std::string& label, const std::vector<std::string>& argv) {
  int fds[2];
  if (pipe(fds) != 0) Die("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  Daemon d;
  d.label = label;
  if (posix_spawn(&d.pid, args[0], &actions, nullptr, args.data(), environ) !=
      0) {
    Die("cannot start " + argv[0]);
  }
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  d.out_fd = fds[0];
  // Read stdout lines until "listening on 127.0.0.1:PORT".
  std::string buffer;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < deadline) {
    pollfd p{d.out_fd, POLLIN, 0};
    if (poll(&p, 1, 1000) <= 0) continue;
    char chunk[512];
    const ssize_t n = read(d.out_fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, n);
    const size_t at = buffer.find("listening on 127.0.0.1:");
    if (at != std::string::npos && buffer.find('\n', at) != std::string::npos) {
      d.port = static_cast<uint16_t>(
          std::atoi(buffer.c_str() + at + std::strlen("listening on 127.0.0.1:")));
      return d;
    }
  }
  kill(d.pid, SIGKILL);
  waitpid(d.pid, nullptr, 0);
  Die(label + " did not report a port: " + buffer);
}

// Peak resident set (VmHWM) in KiB.
long PeakRssKb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

// Sends `sig` and waits for the exit; a daemon that does not drain within
// 20 s is killed.
void Stop(Daemon* d, int sig) {
  if (d->pid <= 0) return;
  kill(d->pid, sig);
  for (int i = 0; i < 400; ++i) {
    if (waitpid(d->pid, nullptr, WNOHANG) == d->pid) {
      d->pid = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (d->pid > 0) {
    kill(d->pid, SIGKILL);
    waitpid(d->pid, nullptr, 0);
    d->pid = -1;
  }
  close(d->out_fd);
}

// The daemons of one set-up: one server, or two shards behind a router.
struct Fleet {
  std::vector<Daemon> daemons;  // The front daemon (clients' target) last.
  std::string catalog_dir;
  uint16_t front_port() const { return daemons.back().port; }
};

Fleet Launch(const Workload& w, const std::string& bin,
             const std::string& catalog_dir) {
  Fleet fleet;
  fleet.catalog_dir = catalog_dir;
  auto server_args = [&](const std::string& dir) {
    std::vector<std::string> args = {bin + "/topodb_server", "--workers",
                                     std::to_string(w.server_workers)};
    if (w.catalog) {
      args.push_back("--catalog");
      args.push_back(dir);
    }
    return args;
  };
  if (!w.routed) {
    fleet.daemons.push_back(Spawn("server", server_args(catalog_dir)));
    return fleet;
  }
  fleet.daemons.push_back(Spawn("shard0", server_args(catalog_dir + "-0")));
  fleet.daemons.push_back(Spawn("shard1", server_args(catalog_dir + "-1")));
  fleet.daemons.push_back(Spawn(
      "router", {bin + "/topodb_router", "--shard",
                 "s0=" + std::to_string(fleet.daemons[0].port), "--shard",
                 "s1=" + std::to_string(fleet.daemons[1].port)}));
  return fleet;
}

void StopFleet(Fleet* fleet) {
  for (auto it = fleet->daemons.rbegin(); it != fleet->daemons.rend(); ++it) {
    Stop(&*it, SIGTERM);
  }
}

topodb::TopoDbClient Connect(uint16_t port) {
  auto client = topodb::TopoDbClient::Connect(port);
  if (!client.ok()) Die("connect: " + client.status().ToString());
  return std::move(client).value();
}

bool Matches(const Request& r, const topodb::Result<std::string>& body) {
  if (!body.ok()) return false;
  return std::find(r.expected.begin(), r.expected.end(), *body) !=
         r.expected.end();
}

// --- Set-up ---------------------------------------------------------------------

// Sends the set-up requests over `connections` connections: every LOAD
// first, then the rest (warm-up reads may name preloaded entries). Returns
// the number of answers that missed truth.
int RunSetup(const Workload& w, uint16_t port, int connections) {
  std::vector<const Request*> loads, rest;
  for (const Request& r : w.setup) {
    (r.kind == Kind::kLoad ? loads : rest).push_back(&r);
  }
  std::atomic<int> wrong{0};
  for (const std::vector<const Request*>* phase : {&loads, &rest}) {
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        topodb::TopoDbClient client = Connect(port);
        for (size_t i = c; i < phase->size(); i += connections) {
          const Request& r = *(*phase)[i];
          if (!Matches(r, client.Call(r.opcode, r.payload))) ++wrong;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  return wrong.load();
}

// --- Timed phase ----------------------------------------------------------------

struct Sample {
  Klass klass;
  bool ok;
  bool saturated;  // Sent in the closed-loop capacity phase.
  double latency_ms;
  double done_s;  // Answer time, seconds after the timed phase started.
  int items;
};

struct ConnectionLog {
  std::vector<Sample> samples;
  double service_ms = 0;  // Sum of send-to-answer times.
  std::vector<double> late_ms;  // Paced: send time minus due time.
  long items = 0;
  long wrong = 0;
  long shed = 0;
  long wrapped = 0;
  std::string first_error;
  // Writer connection: name -> version index of its last acknowledged LOAD.
  std::map<std::string, int> acknowledged;
};

struct TimedResult {
  std::vector<ConnectionLog> logs;
  Clock::time_point start, end;
};

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

TimedResult RunTimed(const Workload& w, uint16_t port, double seconds,
                     Clock::time_point start) {
  TimedResult result;
  const size_t connections = w.streams.size();
  result.logs.resize(connections);
  result.start = start;
  const Clock::time_point stop = After(start, seconds);
  const Clock::time_point saturate =
      After(start, (1 - w.saturation_share) * seconds);
  std::vector<topodb::TopoDbClient> clients;
  for (size_t c = 0; c < connections; ++c) clients.push_back(Connect(port));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<Request>& stream = w.streams[c];
      ConnectionLog& log = result.logs[c];
      if (stream.empty()) return;
      topodb::TopoDbClient& client = clients[c];
      const double rate = w.stream_rates[c];
      for (size_t j = 0;; ++j) {
        Clock::time_point due = Clock::now();
        const bool paced = rate > 0 && due < saturate;
        if (paced) {
          due = After(start, (j + static_cast<double>(c) / connections) / rate);
          if (due >= stop) break;
          std::this_thread::sleep_until(due);
        } else if (due >= stop) {
          break;
        }
        if (j > 0 && j % stream.size() == 0) ++log.wrapped;
        const Request& r = stream[j % stream.size()];
        const Clock::time_point sent = Clock::now();
        const topodb::Result<std::string> body =
            client.Call(r.opcode, r.payload);
        const Clock::time_point done = Clock::now();
        const bool ok = Matches(r, body);
        const bool transport_error =
            !body.ok() && topodb::TopoDbClient::IsTransportError(body.status());
        if (!ok) {
          // A shed is the server's own backpressure answer; a lost
          // connection or a wrong answer fails the run.
          if (!transport_error &&
              body.status().code() == topodb::StatusCode::kUnavailable) {
            ++log.shed;
          } else {
            ++log.wrong;
          }
          if (log.first_error.empty()) {
            log.first_error =
                std::string(KlassName(r.klass)) +
                (r.name.empty() ? "" : " " + r.name) + ": " +
                (body.ok() ? "answer differs from truth"
                           : body.status().ToString());
          }
          if (transport_error) break;  // The connection is gone.
        } else {
          log.items += r.items;
          if (r.kind == Kind::kLoad) log.acknowledged[r.name] = r.version;
        }
        if (paced) log.late_ms.push_back(Seconds(sent - due) * 1e3);
        log.service_ms += Seconds(done - sent) * 1e3;
        log.samples.push_back({r.klass, ok, !paced && rate > 0,
                               Seconds(done - due) * 1e3, Seconds(done - start),
                               ok ? r.items : 0});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.end = Clock::now();
  return result;
}

// The front daemon's METRICS export (a router merges its shards' exports
// into it), or "null".
std::string FetchMetrics(uint16_t port) {
  topodb::TopoDbClient client = Connect(port);
  auto body = client.Call(static_cast<uint16_t>(topodb::Opcode::kMetrics), "");
  if (!body.ok()) return "null";
  topodb::WireReader reader(*body);
  auto doc = reader.ReadWireString();
  return doc.ok() ? *doc : "null";
}

// --- Durability -----------------------------------------------------------------

struct DurabilityResult {
  bool ran = false;
  bool ok = true;
  long checked = 0;
  std::string detail;
};

// SIGKILLs the server, restarts it on the same catalog directory and checks
// that every acknowledged LOAD is listed with its acknowledged entry id and
// serves its acknowledged canonical. A name never rewritten keeps its
// preloaded version.
DurabilityResult CheckDurability(const Workload& w, Fleet* fleet,
                                 const std::string& bin,
                                 const std::map<std::string, int>& acked) {
  DurabilityResult result;
  result.ran = true;
  std::map<std::string, int> expect;
  for (const Request& r : w.setup) {
    if (r.kind == Kind::kLoad) expect[r.name] = r.version;
  }
  for (const auto& [name, version] : acked) expect[name] = version;

  Stop(&fleet->daemons.back(), SIGKILL);
  Fleet restarted = Launch(w, bin, fleet->catalog_dir);
  topodb::TopoDbClient client = Connect(restarted.front_port());
  auto listing = client.List();
  if (!listing.ok()) {
    result.ok = false;
    result.detail = "LIST after restart: " + listing.status().ToString();
  } else {
    std::map<std::string, uint64_t> listed;
    for (const auto& row : *listing) listed[row.name] = row.entry_id;
    for (const auto& [name, version] : expect) {
      ++result.checked;
      const VersionTruth& v = w.versions[version];
      auto it = listed.find(name);
      auto canonical = client.ComputeInvariant(topodb::InstanceRef::Name(name));
      if (it == listed.end() || it->second != v.entry_id || !canonical.ok() ||
          *canonical != v.canonical) {
        result.ok = false;
        if (result.detail.empty()) {
          result.detail = "entry '" + name + "' lost or stale after restart";
        }
      }
    }
  }
  StopFleet(&restarted);
  return result;
}

// --- Output ---------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::ostringstream out;
  out.precision(9);
  out << "[";
  for (size_t i = 0; i < values.size(); ++i) out << (i ? "," : "") << values[i];
  out << "]";
  return out.str();
}

// Figures of consecutive windows of `width` seconds from `from_s` to
// `to_s` of the timed phase. The ledger reports the median window, so a
// neighbour's burst on a shared host moves a few windows and not the
// result. Window k runs from the first answer at or after from_s + k *
// width to the first answer at or after the window's end, so its rates
// divide by a measured span.
struct Windows {
  std::vector<double> rps, items_per_s, p50_ms, p90_ms;
};

Windows SplitWindows(std::vector<const Sample*> answered, double from_s,
                     double to_s, double width) {
  std::sort(answered.begin(), answered.end(),
            [](const Sample* a, const Sample* b) { return a->done_s < b->done_s; });
  auto first_at = [&](double t) {
    return std::lower_bound(answered.begin(), answered.end(), t,
                            [](const Sample* s, double v) { return s->done_s < v; }) -
           answered.begin();
  };
  auto percentile = [](std::vector<double>* v, double q) {
    std::sort(v->begin(), v->end());
    const size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
    return (*v)[std::max<size_t>(rank, 1) - 1];
  };
  Windows out;
  for (double t = from_s; t + width <= to_s + 1e-9; t += width) {
    const size_t begin = first_at(t), end = first_at(t + width);
    if (end >= answered.size() || end - begin < 2) continue;
    const double span = answered[end]->done_s - answered[begin]->done_s;
    double items = 0;
    std::vector<double> latency;
    for (size_t i = begin; i < end; ++i) {
      items += answered[i]->items;
      latency.push_back(answered[i]->latency_ms);
    }
    out.rps.push_back((end - begin) / span);
    out.items_per_s.push_back(items / span);
    out.p50_ms.push_back(percentile(&latency, 0.5));
    out.p90_ms.push_back(percentile(&latency, 0.9));
  }
  return out;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin, work, out;
  bool inject_wrong = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(value().c_str());
    else if (flag == "--trace") a.trace = value() == "1";
    else if (flag == "--bin") a.bin = value();
    else if (flag == "--work") a.work = value();
    else if (flag == "--out") a.out = value();
    else if (flag == "--inject-wrong") a.inject_wrong = true;
    else Die("unknown flag " + flag);
  }
  if (a.workload.empty() || a.bin.empty() || a.work.empty() || a.out.empty() ||
      a.seconds <= 0) {
    Die("usage: perfbench_loadgen --workload NAME --seed N --seconds S "
        "--trace 0|1 --bin DIR --work DIR --out FILE [--inject-wrong]");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  signal(SIGPIPE, SIG_IGN);
  fs::remove_all(args.work);
  fs::create_directories(args.work);

  const Clock::time_point t_inputs = Clock::now();
  Workload w = BuildWorkload(args.workload, args.seed, args.seconds, args.work);
  const double inputs_s = Seconds(Clock::now() - t_inputs);
  std::fprintf(stderr, "perfbench: %s seed %llu: %s (inputs and truth %.1f s)\n",
               w.name.c_str(), (unsigned long long)args.seed, w.notes.c_str(),
               inputs_s);
  if (args.inject_wrong) {
    // Self-test: the first timed request of connection 0 now expects an
    // answer no server gives.
    for (std::string& body : w.streams[0].front().expected) body += "?";
  }

  // Set up five times; the last set-up serves the timed phase.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  int setup_wrong = 0;
  Fleet fleet;
  TimedResult timed;
  std::string metrics_before;
  for (int k = 0; k < kSetups; ++k) {
    const std::string catalog_dir = args.work + "/catalog-" + std::to_string(k);
    const Clock::time_point launch = Clock::now();
    fleet = Launch(w, args.bin, catalog_dir);
    setup_wrong += RunSetup(w, fleet.front_port(), 4);
    if (k + 1 < kSetups) {
      setup_s.push_back(Seconds(Clock::now() - launch));
      StopFleet(&fleet);
      continue;
    }
    // The METRICS snapshot taken here is subtracted from the one after
    // timing, so server-side metrics cover the timed requests only.
    metrics_before = FetchMetrics(fleet.front_port());
    const Clock::time_point start = Clock::now();
    setup_s.push_back(Seconds(start - launch));
    timed = RunTimed(w, fleet.front_port(), args.seconds, start);
  }
  const std::string metrics_after = FetchMetrics(fleet.front_port());
  std::vector<long> rss_kb;
  for (const Daemon& d : fleet.daemons) rss_kb.push_back(PeakRssKb(d.pid));

  // Store bytes: the catalog directory against the text of its live
  // entries (each name's last acknowledged version).
  std::map<std::string, int> acked;
  for (const ConnectionLog& log : timed.logs) {
    for (const auto& [name, version] : log.acknowledged) acked[name] = version;
  }
  uint64_t store_bytes = 0, live_text_bytes = 0;
  if (w.catalog) {
    store_bytes = DirectoryBytes(fleet.catalog_dir);
    std::map<std::string, int> live;
    for (const Request& r : w.setup) {
      if (r.kind == Kind::kLoad) live[r.name] = r.version;
    }
    for (const auto& [name, version] : acked) live[name] = version;
    for (const auto& [name, version] : live) {
      live_text_bytes += w.versions[version].text.size();
    }
  }

  DurabilityResult durability;
  if (w.durability) durability = CheckDurability(w, &fleet, args.bin, acked);
  StopFleet(&fleet);

  int replay_wrong = 0;
  std::string replay_json = "null";
  if (args.trace) {
    std::vector<size_t> sent;
    for (const ConnectionLog& log : timed.logs) sent.push_back(log.samples.size());
    replay_json = RunTracedReplay(w, sent, 0.15 * args.seconds,
                                  args.work + "/replay", &replay_wrong);
  }

  // Raw results for run.py.
  // Latency comes from the samples before the capacity phase, throughput
  // from the capacity phase where a workload has one.
  std::vector<const Sample*> answered, capacity;
  std::map<Klass, std::vector<double>> latencies;
  std::vector<double> late_ms;
  long attempted = 0, ok = 0, wrong = 0, shed = 0, items = 0, wrapped = 0;
  std::string first_error;
  double service_ms = 0;
  for (const ConnectionLog& log : timed.logs) {
    for (const Sample& s : log.samples) {
      ++attempted;
      if (!s.ok) continue;
      ++ok;
      if (s.saturated) {
        capacity.push_back(&s);
        continue;
      }
      latencies[s.klass].push_back(s.latency_ms);
      answered.push_back(&s);
    }
    service_ms += log.service_ms;
    late_ms.insert(late_ms.end(), log.late_ms.begin(), log.late_ms.end());
    wrong += log.wrong;
    shed += log.shed;
    items += log.items;
    wrapped += log.wrapped;
    if (first_error.empty()) first_error = log.first_error;
  }
  const double paced_s = (1 - w.saturation_share) * args.seconds;
  const Windows windows = SplitWindows(std::move(answered), 0, paced_s, 1);
  // The capacity phase is short, so its windows are half a second.
  const Windows capacity_windows =
      SplitWindows(std::move(capacity), paced_s, args.seconds, 0.5);
  std::ostringstream out;
  out.precision(9);
  out << "{\"workload\": " << JsonString(w.name) << ", \"seed\": " << args.seed
      << ", \"notes\": " << JsonString(w.notes)
      << ", \"inputs_s\": " << inputs_s
      << ", \"setup_s\": " << JsonNumbers(setup_s)
      << ", \"setup_wrong\": " << setup_wrong
      << ", \"elapsed_s\": " << Seconds(timed.end - timed.start)
      << ", \"attempted\": " << attempted << ", \"ok\": " << ok
      << ", \"wrong\": " << wrong << ", \"shed\": " << shed
      << ", \"items\": " << items << ", \"wrapped\": " << wrapped
      << ", \"first_error\": " << JsonString(first_error)
      << ", \"client_mean_us\": "
      << (attempted > 0 ? 1e3 * service_ms / attempted : 0.0)
      << ", \"paced\": "
      << (std::any_of(w.stream_rates.begin(), w.stream_rates.end(),
                      [](double r) { return r > 0; })
              ? "true"
              : "false")
      << ", \"capacity\": ";
  if (w.saturation_share > 0) {
    out << "{\"seconds\": " << args.seconds - paced_s
        << ", \"rps\": " << JsonNumbers(capacity_windows.rps)
        << ", \"items_per_s\": " << JsonNumbers(capacity_windows.items_per_s)
        << "}";
  } else {
    out << "null";
  }
  out << ", \"windows\": {\"rps\": " << JsonNumbers(windows.rps)
      << ", \"items_per_s\": " << JsonNumbers(windows.items_per_s)
      << ", \"p50_ms\": " << JsonNumbers(windows.p50_ms)
      << ", \"p90_ms\": " << JsonNumbers(windows.p90_ms) << "}"
      << ", \"late_ms\": " << JsonNumbers(late_ms) << ", \"latency_ms\": {";
  bool first = true;
  for (const auto& [klass, values] : latencies) {
    out << (first ? "" : ", ") << JsonString(KlassName(klass)) << ": "
        << JsonNumbers(values);
    first = false;
  }
  out << "}, \"daemons\": [";
  for (size_t i = 0; i < fleet.daemons.size(); ++i) {
    out << (i ? ", " : "") << JsonString(fleet.daemons[i].label);
  }
  out << "], \"peak_rss_kb\": [";
  for (size_t i = 0; i < rss_kb.size(); ++i) out << (i ? ", " : "") << rss_kb[i];
  out << "], \"store_bytes\": " << store_bytes
      << ", \"live_text_bytes\": " << live_text_bytes
      << ", \"durability\": {\"ran\": " << (durability.ran ? "true" : "false")
      << ", \"ok\": " << (durability.ok ? "true" : "false")
      << ", \"checked\": " << durability.checked
      << ", \"detail\": " << JsonString(durability.detail) << "}"
      << ", \"replay_wrong\": " << replay_wrong
      << ", \"replay\": " << replay_json
      << ", \"metrics_before\": " << metrics_before
      << ", \"metrics\": " << metrics_after
      << "}\n";
  std::ofstream(args.out) << out.str();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
