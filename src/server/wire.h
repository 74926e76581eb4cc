#ifndef TOPODB_SERVER_WIRE_H_
#define TOPODB_SERVER_WIRE_H_

// The TopoDB wire protocol: length-prefixed binary frames over a byte
// stream, shared by the server (src/server/server.h) and the blocking
// client (src/client/client.h).
//
// Every frame is a fixed 24-byte little-endian header followed by
// `payload_len` payload bytes:
//
//   offset  0  u32  magic               "TPDB" (0x42445054)
//   offset  4  u16  version             kWireVersion (= 2)
//   offset  6  u16  opcode              request opcode; responses set
//                                       kWireResponseBit on top of it
//   offset  8  u64  request_id          client-chosen; echoed verbatim in
//                                       the response so a client can
//                                       detect misrouted replies
//   offset 16  u32  deadline_budget_ms  remaining client budget; 0 means
//                                       no deadline. The server converts
//                                       it to an obs::Deadline at
//                                       admission, so queue wait counts
//                                       against the budget
//   offset 20  u32  payload_len         <= kMaxWirePayloadBytes
//
// Variable-size payload fields use the same primitives everywhere:
// unsigned little-endian integers and "wire strings" (u32 byte length +
// bytes, no terminator). A response payload is always
//   u32 wire status code | wire string status message | body bytes
// with an opcode-specific body (empty on error).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"

namespace topodb {

inline constexpr uint32_t kWireMagic = 0x42445054;  // "TPDB" as LE bytes.
// v2: instance arguments of COMPUTE_INVARIANT / BATCH_INVARIANTS /
// EVAL_QUERY / ISO_CHECK are tagged InstanceRefs (inline text or catalog
// name) instead of bare strings, and the catalog opcodes LOAD / LIST /
// DESCRIBE exist.
inline constexpr uint16_t kWireVersion = 2;
inline constexpr size_t kWireHeaderBytes = 24;
// Hard cap on a single frame's payload; a header announcing more is a
// protocol error and closes the connection (a corrupted length must not
// make the peer try to buffer gigabytes).
inline constexpr uint32_t kMaxWirePayloadBytes = 64u << 20;
// Items per BATCH_INVARIANTS request above which the request is rejected
// with InvalidArgument — the same denial-of-service guard, per item.
inline constexpr uint32_t kMaxBatchItems = 1024;
// Set on the opcode field of every response frame.
inline constexpr uint16_t kWireResponseBit = 0x80;

// Request opcodes. Values are wire-stable: never renumber, only append.
enum class Opcode : uint16_t {
  kPing = 1,              // empty payload -> PingBody (u8 state, u32 queue
                          //   depth, u32 queue bound); pre-router servers
                          //   sent an empty body, which decodes as serving
  kComputeInvariant = 2,  // instance ref -> string canonical
  kBatchInvariants = 3,   // u32 n, n instance refs ->
                          //   u32 n, n * (u32 status, string canonical|msg)
  kEvalQuery = 4,         // instance ref, string query -> u8 verdict
  kIsoCheck = 5,          // instance ref a, instance ref b -> u8 iso
  kMetrics = 6,           // empty payload -> string metrics JSON
  kLoad = 7,              // string name, string instance_text ->
                          //   u64 entry_id, u64 file_bytes
  kList = 8,              // empty payload -> u32 n, n * (string name,
                          //   u64 entry_id, u64 file_bytes)
  kDescribe = 9,          // string name -> description (see
                          //   InstanceDescription in client.h)
};

bool IsKnownOpcode(uint16_t raw);
// "PING", "COMPUTE_INVARIANT", ... ("?" for unknown raw values).
std::string OpcodeName(uint16_t raw);

// An instance argument on the wire: either the instance text itself
// (parsed and built per request, the pre-catalog behavior) or the name of
// a catalog entry whose precomputed invariants the server serves without
// rebuilding anything. Encoded as a kind byte followed by one wire string;
// unknown kind bytes are an InvalidArgument at decode, so a newer client
// cannot make an older server misread text as a name.
struct InstanceRef {
  enum class Kind : uint8_t { kInlineText = 0, kCatalogName = 1 };

  Kind kind = Kind::kInlineText;
  std::string value;

  static InstanceRef Text(std::string text) {
    return {Kind::kInlineText, std::move(text)};
  }
  static InstanceRef Name(std::string name) {
    return {Kind::kCatalogName, std::move(name)};
  }
};

void AppendInstanceRef(std::string* out, const InstanceRef& ref);

// The PING response body: the serving state a health checker needs in one
// round trip. `state` distinguishes a server that is accepting work from
// one draining toward shutdown (admitted requests are finishing but new
// ones are rejected) — the shard router's HealthChecker routes around
// draining backends before they disappear. The queue fields expose
// admission pressure so overload ("queue full" sheds) is attributable to
// a live-but-busy backend rather than a dead one.
struct PingBody {
  uint8_t state = 0;         // kPingStateServing / kPingStateDraining.
  uint32_t queue_depth = 0;  // Admitted requests currently queued.
  uint32_t queue_bound = 0;  // Admission-queue capacity (0 = unknown).
};

inline constexpr uint8_t kPingStateServing = 0;
inline constexpr uint8_t kPingStateDraining = 1;

void AppendPingBody(std::string* out, const PingBody& body);
// An empty body decodes to the defaults (serving, unknown queue): servers
// that predate the body are read as healthy rather than failing the probe.
Result<PingBody> DecodePingBody(std::string_view body);

struct FrameHeader {
  uint16_t version = kWireVersion;
  uint16_t opcode = 0;  // Raw value; responses carry kWireResponseBit.
  uint64_t request_id = 0;
  uint32_t deadline_budget_ms = 0;
  uint32_t payload_len = 0;
};

// --- Little-endian payload primitives ------------------------------------

void AppendU8(std::string* out, uint8_t v);
void AppendU16(std::string* out, uint16_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
void AppendWireString(std::string* out, std::string_view s);

// Cursor-based payload reader. Every accessor fails with InvalidArgument
// on truncation instead of reading past the end, so malformed payloads
// surface as clean per-request errors, never as crashes.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<std::string> ReadWireString();
  Result<InstanceRef> ReadInstanceRef();

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  // Rejects trailing garbage after a fully parsed payload.
  Status ExpectEnd() const;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// Decodes a BATCH_INVARIANTS request payload: u32 n (at most
// kMaxBatchItems), then n instance refs, then nothing.
Result<std::vector<InstanceRef>> DecodeBatchRequest(std::string_view payload);

// --- Frame encode/decode --------------------------------------------------

// Serializes header + payload; header.payload_len is taken from
// payload.size() (the field in `header` is ignored).
std::string EncodeFrame(const FrameHeader& header, std::string_view payload);

// Parses and validates the fixed 24-byte header. Errors: InvalidArgument
// on a truncated buffer, wrong magic, or a payload_len above
// kMaxWirePayloadBytes; Unsupported on a version mismatch. All of these
// are connection-fatal for the caller (the stream cannot be resynced).
Result<FrameHeader> DecodeFrameHeader(std::string_view bytes);

// --- Status <-> wire mapping ----------------------------------------------
// Explicit stable values (independent of the StatusCode enum order, which
// is free to change).

uint32_t WireStatusFromCode(StatusCode code);
// Unknown wire values map to kInternal rather than failing: a newer peer
// may legitimately send a code this build does not know.
StatusCode CodeFromWireStatus(uint32_t wire);

// --- Response payload -----------------------------------------------------

std::string EncodeResponsePayload(const Status& status,
                                  std::string_view body);

struct DecodedResponse {
  Status status;      // OK or the re-hydrated error.
  std::string body;   // Opcode-specific; empty on error.
};
Result<DecodedResponse> DecodeResponsePayload(std::string_view payload);

}  // namespace topodb

#endif  // TOPODB_SERVER_WIRE_H_
