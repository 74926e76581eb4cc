#include "src/server/frame_server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>
#include <utility>

#include "src/server/wire.h"

namespace topodb {
namespace {

// How long the acceptor waits after a failed accept() before trying again:
// long enough not to spin while the process is out of fds, short enough
// that serving resumes promptly once a peer lets one go.
constexpr std::chrono::milliseconds kAcceptRetryPause{10};

}  // namespace

ReadOutcome ReadFull(int fd, char* buf, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t r = recv(fd, buf + off, n - off, 0);
    if (r == 0) {
      return {off == 0 ? ReadOutcome::kCleanClose : ReadOutcome::kTruncated,
              off};
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      return {ReadOutcome::kError, off};
    }
    off += static_cast<size_t>(r);
  }
  return {ReadOutcome::kOk, off};
}

bool SendFull(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

class FrameSession {
 public:
  explicit FrameSession(int fd) : fd(fd) {}
  ~FrameSession() { close(fd); }
  FrameSession(const FrameSession&) = delete;
  FrameSession& operator=(const FrameSession&) = delete;

  const int fd;
  std::mutex write_mu;
  // Cleared under write_mu once a send fails or the stream is abandoned;
  // later responses then skip the socket.
  bool writable = true;
};

FrameServer::FrameServer(std::string metric_prefix, MetricsRegistry* metrics,
                         Handler handler)
    : handler_(std::move(handler)),
      c_connections_(metrics->counter(metric_prefix + ".connections")),
      c_accept_errors_(metrics->counter(metric_prefix + ".accept_errors")),
      c_bytes_read_(metrics->counter(metric_prefix + ".bytes_read")),
      c_bytes_written_(metrics->counter(metric_prefix + ".bytes_written")),
      c_responses_(metrics->counter(metric_prefix + ".responses")),
      c_protocol_errors_(
          metrics->counter(metric_prefix + ".protocol_errors")),
      c_truncated_frames_(
          metrics->counter(metric_prefix + ".truncated_frames")),
      c_write_errors_(metrics->counter(metric_prefix + ".write_errors")),
      h_write_us_(metrics->histogram(metric_prefix + ".write_us")) {}

FrameServer::~FrameServer() {
  StopAccepting();
  CloseSessions();
}

Status FrameServer::Start(uint16_t port) {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  auto fail = [this](const char* call) {
    const Status st =
        Status::Internal(std::string(call) + ": " + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  };
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail("bind");
  }
  if (listen(listen_fd_, 64) < 0) return fail("listen");
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) < 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  accepting_.store(true);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void FrameServer::StopAccepting() {
  if (!accepting_.exchange(false)) return;
  // Shutting the listener down wakes accept().
  shutdown(listen_fd_, SHUT_RDWR);
  acceptor_.join();
  close(listen_fd_);
  listen_fd_ = -1;
}

void FrameServer::CloseSessions() {
  std::thread last;
  {
    std::unique_lock<std::mutex> lock(sessions_mu_);
    // EOF wakes every reader blocked in recv; one busy in its handler sees
    // it after the current request.
    for (const auto& [session, reader] : readers_) {
      shutdown(session->fd, SHUT_RD);
    }
    sessions_cv_.wait(lock, [this] { return readers_.empty(); });
    last = std::move(finished_);
  }
  // The last reader to retire joined its predecessor, and so on back.
  if (last.joinable()) last.join();
}

void FrameServer::Retire(FrameSession* session) {
  std::thread predecessor;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto self = readers_.find(session);
    predecessor = std::exchange(finished_, std::move(self->second));
    readers_.erase(self);
    sessions_cv_.notify_all();
  }
  if (predecessor.joinable()) predecessor.join();
}

void FrameServer::AcceptLoop() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!accepting_.load()) return;
      if (errno != EINTR) {
        c_accept_errors_->Add();
        std::this_thread::sleep_for(kAcceptRetryPause);
      }
      continue;
    }
    if (!accepting_.load()) {
      close(fd);
      return;
    }
    c_connections_->Add();
    auto session = std::make_shared<FrameSession>(fd);
    // Registered under the lock Retire() takes, so a reader cannot retire
    // before it is registered.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto reader = readers_.emplace(session.get(), std::thread()).first;
    try {
      reader->second = std::thread([this, session] {
        ReadLoop(session);
        Retire(session.get());
      });
    } catch (const std::system_error&) {
      // Out of threads: drop this connection (its socket closes with the
      // session) and keep accepting.
      readers_.erase(reader);
      c_accept_errors_->Add();
    }
  }
}

void FrameServer::ReadLoop(const std::shared_ptr<FrameSession>& session) {
  for (;;) {
    char header_bytes[kWireHeaderBytes];
    const ReadOutcome got =
        ReadFull(session->fd, header_bytes, kWireHeaderBytes);
    if (got.kind == ReadOutcome::kCleanClose) return;
    if (got.kind != ReadOutcome::kOk) {
      // Truncation means the peer died mid-write; a recv() failure is
      // counted only as a protocol error.
      return Abandon(*session, got.kind == ReadOutcome::kTruncated);
    }
    const Result<FrameHeader> header =
        DecodeFrameHeader(std::string_view(header_bytes, kWireHeaderBytes));
    if (!header.ok()) {
      // Bad magic / version / oversized length: nothing after it can be
      // framed, so it is reported once before the half-close.
      return Abandon(*session, /*truncated=*/false, header.status());
    }
    FrameRequest request;
    request.payload.resize(header->payload_len);
    if (header->payload_len > 0) {
      const ReadOutcome pr = ReadFull(session->fd, request.payload.data(),
                                      request.payload.size());
      // Any EOF here is mid-frame: the header was already consumed.
      if (pr.kind != ReadOutcome::kOk) {
        return Abandon(*session, pr.kind != ReadOutcome::kError);
      }
    }
    c_bytes_read_->Add(kWireHeaderBytes + header->payload_len);
    if ((header->opcode & kWireResponseBit) != 0 ||
        !IsKnownOpcode(header->opcode)) {
      // Recoverable: the framing is intact, only the opcode is unknown.
      Respond(*session, header->opcode, header->request_id,
              Status::Unsupported("unknown opcode " +
                                  std::to_string(header->opcode)),
              {});
      continue;
    }
    request.opcode = header->opcode;
    request.request_id = header->request_id;
    request.deadline = header->deadline_budget_ms > 0
                           ? Deadline::AfterMillis(header->deadline_budget_ms)
                           : Deadline::Infinite();
    handler_(session, std::move(request));
  }
}

void FrameServer::Abandon(FrameSession& session, bool truncated,
                          const Status& report) {
  if (truncated) c_truncated_frames_->Add();
  c_protocol_errors_->Add();
  // The peer's request id is untrustworthy here, so the report echoes 0.
  if (!report.ok()) Respond(session, 0, 0, report, {});
  {
    std::lock_guard<std::mutex> lock(session.write_mu);
    session.writable = false;
  }
  // Both directions: the peer sees EOF instead of waiting on a stream
  // that will never speak again. The fd closes with the last share.
  shutdown(session.fd, SHUT_RDWR);
}

void FrameServer::Respond(FrameSession& session, uint16_t opcode,
                          uint64_t request_id, const Status& status,
                          std::string_view body) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(opcode | kWireResponseBit);
  header.request_id = request_id;
  const std::string frame =
      EncodeFrame(header, EncodeResponsePayload(status, body));
  ScopedTimer timer(h_write_us_);
  std::lock_guard<std::mutex> lock(session.write_mu);
  if (!session.writable) return;
  if (!SendFull(session.fd, frame)) {
    session.writable = false;
    c_write_errors_->Add();
    return;
  }
  c_bytes_written_->Add(frame.size());
  c_responses_->Add();
}

}  // namespace topodb
