#include "src/client/client.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "src/obs/deadline.h"
#include "src/server/frame_server.h"
#include "src/server/wire.h"

namespace topodb {
namespace {

// Every transport-level Status message starts with this prefix; the
// IsTransportError contract keys on it (the wire round-trips messages
// verbatim, so a server-sent Unavailable can never collide with it —
// server messages are "queue full (N/N)" / "server draining").
constexpr char kTransportPrefix[] = "transport: ";

// Transport-level failures (reset, EOF mid-exchange, broken pipe) report
// Unavailable — the server went away and the call is retryable against a
// fresh connection. Internal is reserved for protocol violations on an
// intact transport (misrouted ids, malformed frames).
Status SendAll(int fd, std::string_view bytes) {
  if (SendFull(fd, bytes)) return Status::OK();
  return Status::Unavailable(std::string(kTransportPrefix) + "send: " +
                             std::strerror(errno));
}

// Advances a SplitMix64 state and returns the next draw — the client's
// deterministic jitter stream (seeded per RetryPolicy).
uint64_t NextJitter(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// `mid_frame` marks reads whose frame is already partially consumed (the
// payload after its header): an EOF there is a truncated frame even when
// this particular buffer is still empty. An EOF at a frame boundary is an
// ordinary connection loss; a truncated frame additionally reports how far
// into the expected bytes the stream died, since the connection can never
// be resynchronized from there.
Status RecvAll(int fd, char* buf, size_t n, bool mid_frame) {
  const ReadOutcome got = ReadFull(fd, buf, n);
  if (got.kind == ReadOutcome::kOk) return Status::OK();
  if (got.kind == ReadOutcome::kError) {
    return Status::Unavailable(std::string(kTransportPrefix) + "recv: " +
                               std::strerror(errno));
  }
  if (got.kind == ReadOutcome::kCleanClose && !mid_frame) {
    return Status::Unavailable(std::string(kTransportPrefix) +
                               "connection closed by server");
  }
  return Status::Unavailable(std::string(kTransportPrefix) +
                             "truncated frame: connection closed after " +
                             std::to_string(got.bytes_read) + " of " +
                             std::to_string(n) + " expected bytes");
}

// Bounds every later connect, send and recv on `fd` to `timeout_ms` each
// (0 = unbounded): past it the call fails with EINPROGRESS or EAGAIN,
// which the callers above report as transport errors.
void SetIoTimeout(int fd, uint32_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

// One loopback dial, bounded by `timeout_ms` when nonzero. Shared by
// Connect, Reconnect and ProbeHealth.
Result<int> DialLoopback(uint16_t port, uint32_t timeout_ms = 0) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  if (timeout_ms > 0) SetIoTimeout(fd, timeout_ms);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status st = Status::Unavailable(
        std::string(kTransportPrefix) + "connect to 127.0.0.1:" +
        std::to_string(port) + ": " + std::strerror(errno));
    close(fd);
    return st;
  }
  return fd;
}

}  // namespace

Result<TopoDbClient> TopoDbClient::Connect(uint16_t port,
                                           const ClientOptions& options) {
  TOPODB_ASSIGN_OR_RETURN(int fd, DialLoopback(port));
  TopoDbClient client(fd);
  client.port_ = port;
  client.options_ = options;
  client.jitter_state_ = options.retry.jitter_seed;
  client.c_retries_ = RegistryCounter(options.metrics, "client.retries");
  return client;
}

Result<PingBody> TopoDbClient::ProbeHealth(uint16_t port,
                                           uint32_t budget_ms) {
  const Deadline deadline = budget_ms > 0 ? Deadline::AfterMillis(budget_ms)
                                          : Deadline::Infinite();
  TOPODB_ASSIGN_OR_RETURN(int fd, DialLoopback(port, budget_ms));
  TopoDbClient client(fd);
  // The PING and its reply get what the dial left of the budget.
  SetIoTimeout(fd, deadline.WireBudgetMs());
  return client.HealthPing(deadline.WireBudgetMs());
}

bool TopoDbClient::IsTransportError(const Status& status) {
  return status.code() == StatusCode::kUnavailable &&
         status.message().rfind(kTransportPrefix, 0) == 0;
}

TopoDbClient::TopoDbClient(TopoDbClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_request_id_(other.next_request_id_),
      port_(other.port_),
      options_(other.options_),
      jitter_state_(other.jitter_state_),
      c_retries_(other.c_retries_) {}

TopoDbClient& TopoDbClient::operator=(TopoDbClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    next_request_id_ = other.next_request_id_;
    port_ = other.port_;
    options_ = other.options_;
    jitter_state_ = other.jitter_state_;
    c_retries_ = other.c_retries_;
  }
  return *this;
}

TopoDbClient::~TopoDbClient() {
  if (fd_ >= 0) close(fd_);
}

Status TopoDbClient::Reconnect() {
  if (port_ == 0) {
    return Status::Unavailable(std::string(kTransportPrefix) +
                               "cannot reconnect a wrapped fd");
  }
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  TOPODB_ASSIGN_OR_RETURN(int fd, DialLoopback(port_));
  fd_ = fd;
  return Status::OK();
}

Result<std::string> TopoDbClient::RoundTrip(uint16_t opcode,
                                            const std::string& payload,
                                            uint32_t budget_ms) {
  Result<std::string> result = RoundTripOnce(opcode, payload, budget_ms);
  if (options_.retry.max_retries <= 0 || port_ == 0) return result;
  std::chrono::milliseconds delay = options_.retry.initial_backoff;
  for (int attempt = 1; attempt <= options_.retry.max_retries; ++attempt) {
    if (result.ok() || !IsTransportError(result.status())) return result;
    // Jittered exponential backoff: uniform in [0.5, 1.0) of the current
    // delay, so a fleet of retrying clients decorrelates.
    const double jitter =
        0.5 + 0.5 * (static_cast<double>(NextJitter(&jitter_state_) >> 11) /
                     9007199254740992.0);  // 2^53
    const auto sleep_for = std::chrono::duration_cast<
        std::chrono::milliseconds>(delay * jitter);
    if (sleep_for.count() > 0) std::this_thread::sleep_for(sleep_for);
    delay = std::min(std::chrono::duration_cast<std::chrono::milliseconds>(
                         delay * options_.retry.multiplier),
                     options_.retry.max_backoff);
    CounterAdd(c_retries_);
    // The dead socket can never be resynced — every re-attempt starts
    // from a fresh connection. A failed dial is itself a transport
    // failure and consumes this attempt.
    const Status reconnected = Reconnect();
    if (!reconnected.ok()) {
      result = reconnected;
      continue;
    }
    result = RoundTripOnce(opcode, payload, budget_ms);
  }
  return result;
}

Result<std::string> TopoDbClient::RoundTripOnce(uint16_t opcode,
                                                const std::string& payload,
                                                uint32_t budget_ms) {
  if (fd_ < 0) return Status::Internal("client not connected");
  FrameHeader header;
  header.opcode = opcode;
  header.request_id = next_request_id_++;
  header.deadline_budget_ms = budget_ms;
  TOPODB_RETURN_NOT_OK(SendAll(fd_, EncodeFrame(header, payload)));

  char response_header_bytes[kWireHeaderBytes];
  TOPODB_RETURN_NOT_OK(RecvAll(fd_, response_header_bytes, kWireHeaderBytes,
                               /*mid_frame=*/false));
  TOPODB_ASSIGN_OR_RETURN(
      FrameHeader response_header,
      DecodeFrameHeader(
          std::string_view(response_header_bytes, kWireHeaderBytes)));
  // One request is outstanding at a time, so the reply must match it
  // exactly; anything else means the stream is desynchronized.
  if (response_header.opcode !=
      static_cast<uint16_t>(opcode | kWireResponseBit)) {
    return Status::Internal(
        "misrouted response: sent " + OpcodeName(opcode) + ", got " +
        OpcodeName(response_header.opcode));
  }
  if (response_header.request_id != header.request_id) {
    return Status::Internal(
        "misrouted response: request id " +
        std::to_string(header.request_id) + ", got " +
        std::to_string(response_header.request_id));
  }
  std::string response_payload(response_header.payload_len, '\0');
  if (response_header.payload_len > 0) {
    TOPODB_RETURN_NOT_OK(RecvAll(fd_, response_payload.data(),
                                 response_payload.size(),
                                 /*mid_frame=*/true));
  }
  TOPODB_ASSIGN_OR_RETURN(DecodedResponse response,
                          DecodeResponsePayload(response_payload));
  TOPODB_RETURN_NOT_OK(response.status);
  return std::move(response.body);
}

Status TopoDbClient::Ping(uint32_t budget_ms) {
  return RoundTrip(static_cast<uint16_t>(Opcode::kPing), {}, budget_ms)
      .status();
}

Result<PingBody> TopoDbClient::HealthPing(uint32_t budget_ms) {
  TOPODB_ASSIGN_OR_RETURN(
      std::string body,
      RoundTrip(static_cast<uint16_t>(Opcode::kPing), {}, budget_ms));
  return DecodePingBody(body);
}

Result<std::string> TopoDbClient::ComputeInvariant(const InstanceRef& ref,
                                                   uint32_t budget_ms) {
  std::string payload;
  AppendInstanceRef(&payload, ref);
  TOPODB_ASSIGN_OR_RETURN(
      std::string body,
      RoundTrip(static_cast<uint16_t>(Opcode::kComputeInvariant), payload,
                budget_ms));
  WireReader reader(body);
  TOPODB_ASSIGN_OR_RETURN(std::string canonical, reader.ReadWireString());
  TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
  return canonical;
}

Result<std::vector<Result<std::string>>> TopoDbClient::BatchInvariants(
    const std::vector<InstanceRef>& refs, uint32_t budget_ms) {
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(refs.size()));
  for (const InstanceRef& ref : refs) {
    AppendInstanceRef(&payload, ref);
  }
  TOPODB_ASSIGN_OR_RETURN(
      std::string body,
      RoundTrip(static_cast<uint16_t>(Opcode::kBatchInvariants), payload,
                budget_ms));
  WireReader reader(body);
  TOPODB_ASSIGN_OR_RETURN(uint32_t n, reader.ReadU32());
  if (n != refs.size()) {
    return Status::Internal(
        "batch response has " + std::to_string(n) + " items, sent " +
        std::to_string(refs.size()));
  }
  std::vector<Result<std::string>> results;
  results.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    TOPODB_ASSIGN_OR_RETURN(uint32_t wire_status, reader.ReadU32());
    TOPODB_ASSIGN_OR_RETURN(std::string text, reader.ReadWireString());
    const StatusCode code = CodeFromWireStatus(wire_status);
    if (code == StatusCode::kOk) {
      results.emplace_back(std::move(text));
    } else {
      results.emplace_back(Status(code, std::move(text)));
    }
  }
  TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
  return results;
}

Result<std::vector<Result<std::string>>> TopoDbClient::BatchInvariants(
    const std::vector<std::string>& instance_texts, uint32_t budget_ms) {
  std::vector<InstanceRef> refs;
  refs.reserve(instance_texts.size());
  for (const std::string& text : instance_texts) {
    refs.push_back(InstanceRef::Text(text));
  }
  return BatchInvariants(refs, budget_ms);
}

Result<bool> TopoDbClient::EvalQuery(const InstanceRef& ref,
                                     const std::string& query,
                                     uint32_t budget_ms) {
  std::string payload;
  AppendInstanceRef(&payload, ref);
  AppendWireString(&payload, query);
  TOPODB_ASSIGN_OR_RETURN(
      std::string body,
      RoundTrip(static_cast<uint16_t>(Opcode::kEvalQuery), payload,
                budget_ms));
  WireReader reader(body);
  TOPODB_ASSIGN_OR_RETURN(uint8_t verdict, reader.ReadU8());
  TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
  return verdict != 0;
}

Result<bool> TopoDbClient::IsoCheck(const InstanceRef& ref_a,
                                    const InstanceRef& ref_b,
                                    uint32_t budget_ms) {
  std::string payload;
  AppendInstanceRef(&payload, ref_a);
  AppendInstanceRef(&payload, ref_b);
  TOPODB_ASSIGN_OR_RETURN(
      std::string body,
      RoundTrip(static_cast<uint16_t>(Opcode::kIsoCheck), payload,
                budget_ms));
  WireReader reader(body);
  TOPODB_ASSIGN_OR_RETURN(uint8_t isomorphic, reader.ReadU8());
  TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
  return isomorphic != 0;
}

Result<TopoDbClient::LoadResult> TopoDbClient::Load(
    const std::string& name, const std::string& instance_text,
    uint32_t budget_ms) {
  std::string payload;
  AppendWireString(&payload, name);
  AppendWireString(&payload, instance_text);
  TOPODB_ASSIGN_OR_RETURN(
      std::string body,
      RoundTrip(static_cast<uint16_t>(Opcode::kLoad), payload, budget_ms));
  WireReader reader(body);
  LoadResult result;
  TOPODB_ASSIGN_OR_RETURN(result.entry_id, reader.ReadU64());
  TOPODB_ASSIGN_OR_RETURN(result.file_bytes, reader.ReadU64());
  TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
  return result;
}

Result<std::vector<CatalogEntryInfo>> TopoDbClient::List(uint32_t budget_ms) {
  TOPODB_ASSIGN_OR_RETURN(
      std::string body,
      RoundTrip(static_cast<uint16_t>(Opcode::kList), {}, budget_ms));
  WireReader reader(body);
  TOPODB_ASSIGN_OR_RETURN(uint32_t n, reader.ReadU32());
  std::vector<CatalogEntryInfo> entries;
  entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    CatalogEntryInfo info;
    TOPODB_ASSIGN_OR_RETURN(info.name, reader.ReadWireString());
    TOPODB_ASSIGN_OR_RETURN(info.entry_id, reader.ReadU64());
    TOPODB_ASSIGN_OR_RETURN(info.file_bytes, reader.ReadU64());
    entries.push_back(std::move(info));
  }
  TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
  return entries;
}

Result<InstanceDescription> TopoDbClient::Describe(const std::string& name,
                                                   uint32_t budget_ms) {
  std::string payload;
  AppendWireString(&payload, name);
  TOPODB_ASSIGN_OR_RETURN(
      std::string body,
      RoundTrip(static_cast<uint16_t>(Opcode::kDescribe), payload,
                budget_ms));
  WireReader reader(body);
  InstanceDescription description;
  TOPODB_ASSIGN_OR_RETURN(description.name, reader.ReadWireString());
  TOPODB_ASSIGN_OR_RETURN(description.entry_id, reader.ReadU64());
  TOPODB_ASSIGN_OR_RETURN(description.file_bytes, reader.ReadU64());
  TOPODB_ASSIGN_OR_RETURN(description.num_regions, reader.ReadU64());
  TOPODB_ASSIGN_OR_RETURN(description.num_vertices, reader.ReadU64());
  TOPODB_ASSIGN_OR_RETURN(description.num_edges, reader.ReadU64());
  TOPODB_ASSIGN_OR_RETURN(description.num_faces, reader.ReadU64());
  TOPODB_ASSIGN_OR_RETURN(uint8_t has_s, reader.ReadU8());
  description.has_s_invariant = has_s != 0;
  TOPODB_ASSIGN_OR_RETURN(description.canonical_bytes, reader.ReadU64());
  TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
  return description;
}

Result<std::string> TopoDbClient::Metrics(uint32_t budget_ms) {
  TOPODB_ASSIGN_OR_RETURN(
      std::string body,
      RoundTrip(static_cast<uint16_t>(Opcode::kMetrics), {}, budget_ms));
  WireReader reader(body);
  TOPODB_ASSIGN_OR_RETURN(std::string json, reader.ReadWireString());
  TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
  return json;
}

}  // namespace topodb
