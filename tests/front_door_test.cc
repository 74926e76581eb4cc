// The shared front door (src/server/frame_server.h) under connection churn
// and fd exhaustion, driven through both of its owners, TopoDbServer and
// TopoDbRouter. Every socket wait here is bounded, so a front door that
// leaks connections or stops accepting fails these tests instead of
// hanging them. Runs under TSan (ci/run_ci.sh).

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "src/shard/router.h"

namespace topodb {
namespace {

constexpr int kChurnCycles = 2000;

// The descriptor numbers this process has open.
std::vector<int> OpenFds() {
  std::vector<int> fds;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return fds;
  const int own = dirfd(dir);
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const int fd = std::atoi(entry->d_name);
    if (fd != own) fds.push_back(fd);
  }
  closedir(dir);
  return fds;
}

bool WaitFor(const std::function<bool()>& done,
             std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

// A loopback connection whose connect, send and recv each give up after
// timeout_ms. -1 on failure.
int Dial(uint16_t port, int timeout_ms = 5000) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool RecvExactly(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = recv(fd, buf + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<size_t>(r);
  }
  return true;
}

// One connect / PING / close cycle; true when the PING was answered.
bool PingOnce(uint16_t port) {
  const int fd = Dial(port);
  if (fd < 0) return false;
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kPing);
  header.request_id = 1;
  const std::string frame = EncodeFrame(header, "");
  bool ok = send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(frame.size());
  char reply[kWireHeaderBytes];
  ok = ok && RecvExactly(fd, reply, sizeof(reply));
  const Result<FrameHeader> decoded =
      ok ? DecodeFrameHeader(std::string_view(reply, sizeof(reply)))
         : Result<FrameHeader>(Status::Internal("no reply"));
  ok = decoded.ok() && decoded->opcode == (header.opcode | kWireResponseBit);
  if (ok) {
    // Drain the body so the close is a clean FIN, not a reset.
    std::string body(decoded->payload_len, '\0');
    ok = RecvExactly(fd, body.data(), body.size());
  }
  close(fd);
  return ok;
}

// A router whose PINGs are answered by the router itself, in front of one
// backend. The prober is off so that only the test's connections count.
struct RoutedFrontDoor {
  TopoDbServer backend{ServerOptions{}};
  std::unique_ptr<TopoDbRouter> router;

  void Start() {
    ASSERT_TRUE(backend.Start().ok());
    RouterOptions options;
    options.shards.push_back({"s0", backend.port()});
    options.health_checker = false;
    router = std::make_unique<TopoDbRouter>(options);
    ASSERT_TRUE(router->Start().ok());
  }
};

// Connection churn: every closed connection gives its fd (and reader
// thread) back, so the process returns to its baseline.
void ExpectChurnReleasesConnections(uint16_t port) {
  const size_t baseline = OpenFds().size();
  for (int i = 0; i < kChurnCycles; ++i) {
    ASSERT_TRUE(PingOnce(port)) << "cycle " << i;
  }
  // Readers let go of their sockets asynchronously after the peer's close.
  EXPECT_TRUE(WaitFor([&] { return OpenFds().size() <= baseline + 4; },
                      std::chrono::seconds(10)))
      << OpenFds().size() << " fds open after " << kChurnCycles
      << " closed connections; " << baseline << " before";
  EXPECT_TRUE(PingOnce(port)) << "a fresh client was not served";
}

TEST(FrontDoorTest, ServerReleasesClosedConnections) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ExpectChurnReleasesConnections(server.port());
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(FrontDoorTest, RouterReleasesClosedConnections) {
  RoutedFrontDoor door;
  ASSERT_NO_FATAL_FAILURE(door.Start());
  ExpectChurnReleasesConnections(door.router->port());
  EXPECT_TRUE(door.router->Shutdown().ok());
}

// Lowers the soft RLIMIT_NOFILE for its lifetime.
class ScopedFdLimit {
 public:
  explicit ScopedFdLimit(rlim_t soft) {
    getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    EXPECT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~ScopedFdLimit() { setrlimit(RLIMIT_NOFILE, &saved_); }

 private:
  rlimit saved_{};
};

// fd exhaustion: with the process out of descriptors, accept() fails while
// a connection is pending. Once the clients let go, the front door must
// serve again — the acceptor counts the failures and retries rather than
// ending.
void ExpectServesAfterFdExhaustion(uint16_t port, MetricsRegistry& metrics,
                                   const std::string& prefix) {
  Counter* accept_errors = metrics.counter(prefix + ".accept_errors");
  std::vector<int> clients;
  {
    const std::vector<int> in_use = OpenFds();
    // Room for a few dozen more descriptors, drawn on by this test's
    // client sockets and the front door's accepted ones alike.
    ScopedFdLimit limit(*std::max_element(in_use.begin(), in_use.end()) +
                        49);
    const int reserve = open("/dev/null", O_RDONLY);
    ASSERT_GE(reserve, 0);
    for (int fd; (fd = Dial(port, 1000)) >= 0;) clients.push_back(fd);
    // Spend the one freed descriptor on one more connection: it is pending
    // while no descriptor is left for accept().
    close(reserve);
    if (const int fd = Dial(port, 1000); fd >= 0) clients.push_back(fd);
    EXPECT_TRUE(WaitFor([&] { return accept_errors->value() > 0; },
                        std::chrono::seconds(5)))
        << "accept() never failed; " << clients.size() << " clients";
    for (const int fd : clients) close(fd);
  }
  EXPECT_TRUE(PingOnce(port)) << "no longer serving after fd exhaustion";
}

TEST(FrontDoorTest, ServerAcceptsAgainAfterFdExhaustion) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ExpectServesAfterFdExhaustion(server.port(), server.metrics(), "server");
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(FrontDoorTest, RouterAcceptsAgainAfterFdExhaustion) {
  RoutedFrontDoor door;
  ASSERT_NO_FATAL_FAILURE(door.Start());
  ExpectServesAfterFdExhaustion(door.router->port(), door.router->metrics(),
                                "router");
  EXPECT_TRUE(door.router->Shutdown().ok());
}

}  // namespace
}  // namespace topodb
