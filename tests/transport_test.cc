// Transport-level failure paths of the wire protocol, driven
// deterministically over a socketpair: short reads that must reassemble
// into a full frame, EOF at a frame boundary (ordinary connection loss)
// versus EOF mid-frame (a truncated frame that can never be resynced),
// and the truncated-frame counters of both front doors (server and
// router).

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/client/client.h"
#include "src/client/pool.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "src/shard/router.h"

namespace topodb {
namespace {

void MakePair(int fds[2]) {
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0) << strerror(errno);
}

bool ReadExact(int fd, char* buf, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t r = read(fd, buf + off, n - off);
    if (r <= 0) return false;
    off += static_cast<size_t>(r);
  }
  return true;
}

bool WriteExact(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = write(fd, bytes.data() + off, bytes.size() - off);
    if (w <= 0) return false;
    off += static_cast<size_t>(w);
  }
  return true;
}

// Consumes one request frame from the peer end so the test can respond
// (the client writes before it reads; a small request fits in the socket
// buffer, but draining it keeps the exchange honest).
FrameHeader DrainRequest(int fd) {
  char header_bytes[kWireHeaderBytes];
  EXPECT_TRUE(ReadExact(fd, header_bytes, kWireHeaderBytes));
  auto header =
      DecodeFrameHeader(std::string_view(header_bytes, kWireHeaderBytes));
  EXPECT_TRUE(header.ok()) << header.status().ToString();
  std::string payload(header->payload_len, '\0');
  if (header->payload_len > 0) {
    EXPECT_TRUE(ReadExact(fd, payload.data(), payload.size()));
  }
  return *header;
}

std::string PingResponseFrame(uint64_t request_id) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kPing) | kWireResponseBit;
  header.request_id = request_id;
  return EncodeFrame(header, EncodeResponsePayload(Status::OK(), ""));
}

TEST(TransportTest, ShortReadsReassembleIntoAFullFrame) {
  int fds[2];
  MakePair(fds);
  TopoDbClient client = TopoDbClient::WrapFdForTest(fds[0]);
  std::thread peer([fd = fds[1]] {
    const FrameHeader request = DrainRequest(fd);
    const std::string frame = PingResponseFrame(request.request_id);
    // Dribble the response one byte at a time with pauses, so the
    // client's recv() loop sees genuinely partial reads.
    for (char c : frame) {
      ASSERT_TRUE(WriteExact(fd, std::string_view(&c, 1)));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    close(fd);
  });
  EXPECT_TRUE(client.Ping().ok());
  peer.join();
}

TEST(TransportTest, CleanCloseBeforeResponseIsConnectionLossNotTruncation) {
  int fds[2];
  MakePair(fds);
  TopoDbClient client = TopoDbClient::WrapFdForTest(fds[0]);
  std::thread peer([fd = fds[1]] {
    DrainRequest(fd);
    close(fd);  // EOF at a frame boundary: zero response bytes sent.
  });
  const Status st = client.Ping();
  peer.join();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find("connection closed by server"),
            std::string::npos)
      << st.ToString();
  EXPECT_EQ(st.message().find("truncated"), std::string::npos)
      << st.ToString();
}

TEST(TransportTest, EofMidHeaderReportsTruncatedFrameWithByteCounts) {
  int fds[2];
  MakePair(fds);
  TopoDbClient client = TopoDbClient::WrapFdForTest(fds[0]);
  std::thread peer([fd = fds[1]] {
    const FrameHeader request = DrainRequest(fd);
    const std::string frame = PingResponseFrame(request.request_id);
    ASSERT_TRUE(WriteExact(fd, std::string_view(frame.data(), 10)));
    close(fd);  // Dies 10 bytes into the 24-byte response header.
  });
  const Status st = client.Ping();
  peer.join();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find("truncated frame"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("10 of 24"), std::string::npos)
      << st.ToString();
}

TEST(TransportTest, EofMidPayloadReportsTruncatedFrame) {
  int fds[2];
  MakePair(fds);
  TopoDbClient client = TopoDbClient::WrapFdForTest(fds[0]);
  std::thread peer([fd = fds[1]] {
    const FrameHeader request = DrainRequest(fd);
    const std::string frame = PingResponseFrame(request.request_id);
    ASSERT_GT(frame.size(), kWireHeaderBytes + 3);
    // Full header, then only 3 payload bytes: the header has committed
    // the stream to a payload, so even a zero-progress read here must
    // report truncation rather than a clean close.
    ASSERT_TRUE(WriteExact(
        fd, std::string_view(frame.data(), kWireHeaderBytes + 3)));
    close(fd);
  });
  const Status st = client.Ping();
  peer.join();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find("truncated frame"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("3 of 8"), std::string::npos) << st.ToString();
}

TEST(TransportTest, CloseAfterCompletedExchangeIsStillACleanClose) {
  int fds[2];
  MakePair(fds);
  TopoDbClient client = TopoDbClient::WrapFdForTest(fds[0]);
  std::thread peer([fd = fds[1]] {
    const FrameHeader request = DrainRequest(fd);
    ASSERT_TRUE(WriteExact(fd, PingResponseFrame(request.request_id)));
    DrainRequest(fd);  // Second ping arrives...
    close(fd);         // ...and the peer goes away between frames.
  });
  EXPECT_TRUE(client.Ping().ok());
  const Status st = client.Ping();
  peer.join();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find("connection closed by server"),
            std::string::npos)
      << st.ToString();
}

// --- Server side -----------------------------------------------------------

int ConnectRaw(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << strerror(errno);
  return fd;
}

uint64_t WaitForCounter(MetricsRegistry& registry, const std::string& name,
                        uint64_t at_least) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  Counter* counter = registry.counter(name);
  while (counter->value() < at_least &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return counter->value();
}

// Drives partial frames at one front door and checks its
// <prefix>.truncated_frames counter.
void ExpectTruncationsCounted(uint16_t port, MetricsRegistry& metrics,
                              const std::string& prefix) {
  const std::string truncated = prefix + ".truncated_frames";
  // Half a header, then EOF.
  {
    const int fd = ConnectRaw(port);
    FrameHeader header;
    header.opcode = static_cast<uint16_t>(Opcode::kPing);
    header.request_id = 7;
    const std::string frame = EncodeFrame(header, "");
    ASSERT_TRUE(WriteExact(fd, std::string_view(frame.data(), 8)));
    close(fd);
  }
  EXPECT_EQ(WaitForCounter(metrics, truncated, 1), 1u);

  // Full header announcing a payload, then EOF before the payload.
  {
    const int fd = ConnectRaw(port);
    FrameHeader header;
    header.opcode = static_cast<uint16_t>(Opcode::kComputeInvariant);
    header.request_id = 8;
    std::string payload;
    AppendWireString(&payload, "region r0 { }");
    const std::string frame = EncodeFrame(header, payload);
    ASSERT_TRUE(
        WriteExact(fd, std::string_view(frame.data(), kWireHeaderBytes + 2)));
    close(fd);
  }
  EXPECT_EQ(WaitForCounter(metrics, truncated, 2), 2u);

  // A clean close at a frame boundary is NOT a truncated frame.
  {
    const int fd = ConnectRaw(port);
    close(fd);
  }
  EXPECT_EQ(WaitForCounter(metrics, prefix + ".connections", 3), 3u);
  EXPECT_EQ(metrics.counter(truncated)->value(), 2u);
}

// The server and the router share one framing loop; both are pinned.
TEST(ServerTruncationTest, PartialFramesIncrementTruncatedFrameCounter) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  {
    SCOPED_TRACE("server");
    ExpectTruncationsCounted(server.port(), server.metrics(), "server");
  }

  RouterOptions options;
  options.shards.push_back({"s0", server.port()});
  options.health_checker = false;
  TopoDbRouter router(options);
  ASSERT_TRUE(router.Start().ok());
  {
    SCOPED_TRACE("router");
    ExpectTruncationsCounted(router.port(), router.metrics(), "router");
  }
  EXPECT_TRUE(router.Shutdown().ok());
  EXPECT_TRUE(server.Shutdown().ok());
}

// --- Transport-error classification and retry ------------------------------

TEST(TransportTest, IsTransportErrorKeysOnTheMessageConvention) {
  EXPECT_TRUE(TopoDbClient::IsTransportError(
      Status::Unavailable("transport: connection closed by server")));
  // Server-sent Unavailable (shed, drain) is authoritative, not retryable.
  EXPECT_FALSE(
      TopoDbClient::IsTransportError(Status::Unavailable("queue full (1/1)")));
  EXPECT_FALSE(TopoDbClient::IsTransportError(
      Status::Unavailable("server draining")));
  // Other codes never classify as transport regardless of message.
  EXPECT_FALSE(TopoDbClient::IsTransportError(
      Status::Internal("transport: not actually")));
  EXPECT_FALSE(TopoDbClient::IsTransportError(Status::OK()));
}

TEST(TransportTest, RetryIsOffByDefault) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = TopoDbClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(server.Shutdown().ok());
  const Status st = client->Ping();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(TopoDbClient::IsTransportError(st)) << st.ToString();
}

// Pins the retry loop's contract: exactly max_retries re-attempts are
// made (counted in client.retries), and the final status is still the
// transport-level Unavailable when every attempt fails.
TEST(TransportTest, RetryCountAndFinalStatusArePinned) {
  MetricsRegistry registry;
  ClientOptions options;
  options.retry.max_retries = 3;
  options.retry.initial_backoff = std::chrono::milliseconds(1);
  options.retry.max_backoff = std::chrono::milliseconds(2);
  options.metrics = &registry;

  uint16_t port = 0;
  {
    TopoDbServer server(ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    port = server.port();
    auto client = TopoDbClient::Connect(port, options);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(server.Shutdown().ok());

    const Status st = client->Ping();
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(TopoDbClient::IsTransportError(st)) << st.ToString();
  }
  EXPECT_EQ(registry.counter("client.retries")->value(), 3u);
}

// The payoff case: the endpoint comes back between attempts (a shard
// restart) and the retried call succeeds on the new process.
TEST(TransportTest, RetrySucceedsAcrossAServerRestart) {
  MetricsRegistry registry;
  ClientOptions options;
  options.retry.max_retries = 3;
  options.retry.initial_backoff = std::chrono::milliseconds(1);
  options.metrics = &registry;

  TopoDbServer first(ServerOptions{});
  ASSERT_TRUE(first.Start().ok());
  const uint16_t port = first.port();
  auto client = TopoDbClient::Connect(port, options);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(first.Shutdown().ok());

  ServerOptions restart_options;
  restart_options.port = port;  // Reclaim the exact port.
  TopoDbServer second(restart_options);
  if (!second.Start().ok()) {
    GTEST_SKIP() << "could not rebind " << port << " (port reuse race)";
  }
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GE(registry.counter("client.retries")->value(), 1u);
  EXPECT_TRUE(second.Shutdown().ok());
}

// --- Connection pool --------------------------------------------------------

TEST(ClientPoolTest, ReusesReleasedConnections) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ClientPoolOptions options;
  options.port = server.port();
  options.max_idle = 2;
  ClientPool pool(options);
  EXPECT_EQ(pool.idle(), 0u);
  {
    auto lease = pool.Acquire();
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    EXPECT_TRUE((*lease)->Ping().ok());
  }  // Released back.
  EXPECT_EQ(pool.idle(), 1u);
  {
    auto lease = pool.Acquire();  // Pops the pooled connection.
    ASSERT_TRUE(lease.ok());
    EXPECT_EQ(pool.idle(), 0u);
    EXPECT_TRUE((*lease)->Ping().ok());
  }
  EXPECT_EQ(pool.idle(), 1u);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ClientPoolTest, DiscardDropsInsteadOfPooling) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ClientPoolOptions options;
  options.port = server.port();
  ClientPool pool(options);
  {
    auto lease = pool.Acquire();
    ASSERT_TRUE(lease.ok());
    lease->Discard();
  }
  EXPECT_EQ(pool.idle(), 0u);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ClientPoolTest, MaxIdleBoundsRetainedConnections) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ClientPoolOptions options;
  options.port = server.port();
  options.max_idle = 1;
  ClientPool pool(options);
  {
    auto a = pool.Acquire();
    auto b = pool.Acquire();
    ASSERT_TRUE(a.ok() && b.ok());
  }  // Both released; only one is kept.
  EXPECT_EQ(pool.idle(), 1u);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ClientPoolTest, AcquireFailsWithTransportErrorWhenEndpointIsDown) {
  uint16_t dead_port = 0;
  {
    TopoDbServer server(ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    dead_port = server.port();
    ASSERT_TRUE(server.Shutdown().ok());
  }
  ClientPoolOptions options;
  options.port = dead_port;
  ClientPool pool(options);
  auto lease = pool.Acquire();
  ASSERT_FALSE(lease.ok());
  EXPECT_TRUE(TopoDbClient::IsTransportError(lease.status()))
      << lease.status().ToString();
}

}  // namespace
}  // namespace topodb
