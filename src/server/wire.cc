#include "src/server/wire.h"

namespace topodb {
namespace {

// Reads an unsigned little-endian integer of `n` bytes at `pos` (caller
// guarantees bounds).
uint64_t ReadLE(std::string_view data, size_t pos, size_t n) {
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data[pos + i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

bool IsKnownOpcode(uint16_t raw) {
  switch (static_cast<Opcode>(raw)) {
    case Opcode::kPing:
    case Opcode::kComputeInvariant:
    case Opcode::kBatchInvariants:
    case Opcode::kEvalQuery:
    case Opcode::kIsoCheck:
    case Opcode::kMetrics:
    case Opcode::kLoad:
    case Opcode::kList:
    case Opcode::kDescribe:
      return true;
  }
  return false;
}

std::string OpcodeName(uint16_t raw) {
  const bool response = (raw & kWireResponseBit) != 0;
  std::string name;
  switch (static_cast<Opcode>(raw & ~kWireResponseBit)) {
    case Opcode::kPing: name = "PING"; break;
    case Opcode::kComputeInvariant: name = "COMPUTE_INVARIANT"; break;
    case Opcode::kBatchInvariants: name = "BATCH_INVARIANTS"; break;
    case Opcode::kEvalQuery: name = "EVAL_QUERY"; break;
    case Opcode::kIsoCheck: name = "ISO_CHECK"; break;
    case Opcode::kMetrics: name = "METRICS"; break;
    case Opcode::kLoad: name = "LOAD"; break;
    case Opcode::kList: name = "LIST"; break;
    case Opcode::kDescribe: name = "DESCRIBE"; break;
    default: name = "?"; break;
  }
  return response ? name + "_RESPONSE" : name;
}

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU16(std::string* out, uint16_t v) {
  for (int i = 0; i < 2; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendWireString(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void AppendInstanceRef(std::string* out, const InstanceRef& ref) {
  AppendU8(out, static_cast<uint8_t>(ref.kind));
  AppendWireString(out, ref.value);
}

void AppendPingBody(std::string* out, const PingBody& body) {
  AppendU8(out, body.state);
  AppendU32(out, body.queue_depth);
  AppendU32(out, body.queue_bound);
}

Result<PingBody> DecodePingBody(std::string_view body) {
  PingBody decoded;
  if (body.empty()) return decoded;  // Pre-body server: serving.
  WireReader reader(body);
  TOPODB_ASSIGN_OR_RETURN(decoded.state, reader.ReadU8());
  TOPODB_ASSIGN_OR_RETURN(decoded.queue_depth, reader.ReadU32());
  TOPODB_ASSIGN_OR_RETURN(decoded.queue_bound, reader.ReadU32());
  TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
  if (decoded.state != kPingStateServing &&
      decoded.state != kPingStateDraining) {
    return Status::InvalidArgument("unknown ping state " +
                                   std::to_string(decoded.state));
  }
  return decoded;
}

Result<uint8_t> WireReader::ReadU8() {
  if (remaining() < 1) {
    return Status::InvalidArgument("wire payload truncated reading u8");
  }
  return static_cast<uint8_t>(ReadLE(data_, pos_++, 1));
}

Result<uint16_t> WireReader::ReadU16() {
  if (remaining() < 2) {
    return Status::InvalidArgument("wire payload truncated reading u16");
  }
  const uint16_t v = static_cast<uint16_t>(ReadLE(data_, pos_, 2));
  pos_ += 2;
  return v;
}

Result<uint32_t> WireReader::ReadU32() {
  if (remaining() < 4) {
    return Status::InvalidArgument("wire payload truncated reading u32");
  }
  const uint32_t v = static_cast<uint32_t>(ReadLE(data_, pos_, 4));
  pos_ += 4;
  return v;
}

Result<uint64_t> WireReader::ReadU64() {
  if (remaining() < 8) {
    return Status::InvalidArgument("wire payload truncated reading u64");
  }
  const uint64_t v = ReadLE(data_, pos_, 8);
  pos_ += 8;
  return v;
}

Result<std::string> WireReader::ReadWireString() {
  TOPODB_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  if (remaining() < len) {
    return Status::InvalidArgument(
        "wire string announces " + std::to_string(len) + " bytes but only " +
        std::to_string(remaining()) + " remain");
  }
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

Result<InstanceRef> WireReader::ReadInstanceRef() {
  TOPODB_ASSIGN_OR_RETURN(uint8_t kind, ReadU8());
  if (kind > static_cast<uint8_t>(InstanceRef::Kind::kCatalogName)) {
    return Status::InvalidArgument("unknown instance-ref kind " +
                                   std::to_string(kind));
  }
  TOPODB_ASSIGN_OR_RETURN(std::string value, ReadWireString());
  return InstanceRef{static_cast<InstanceRef::Kind>(kind), std::move(value)};
}

Status WireReader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::InvalidArgument(
        std::to_string(remaining()) + " trailing bytes after wire payload");
  }
  return Status::OK();
}

Result<std::vector<InstanceRef>> DecodeBatchRequest(std::string_view payload) {
  WireReader reader(payload);
  TOPODB_ASSIGN_OR_RETURN(uint32_t n, reader.ReadU32());
  if (n > kMaxBatchItems) {
    return Status::InvalidArgument(
        "batch of " + std::to_string(n) + " items exceeds the " +
        std::to_string(kMaxBatchItems) + "-item request cap");
  }
  std::vector<InstanceRef> refs;
  refs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    TOPODB_ASSIGN_OR_RETURN(InstanceRef ref, reader.ReadInstanceRef());
    refs.push_back(std::move(ref));
  }
  TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
  return refs;
}

std::string EncodeFrame(const FrameHeader& header, std::string_view payload) {
  std::string out;
  out.reserve(kWireHeaderBytes + payload.size());
  AppendU32(&out, kWireMagic);
  AppendU16(&out, header.version);
  AppendU16(&out, header.opcode);
  AppendU64(&out, header.request_id);
  AppendU32(&out, header.deadline_budget_ms);
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

Result<FrameHeader> DecodeFrameHeader(std::string_view bytes) {
  if (bytes.size() < kWireHeaderBytes) {
    return Status::InvalidArgument(
        "truncated frame header: " + std::to_string(bytes.size()) + " of " +
        std::to_string(kWireHeaderBytes) + " bytes");
  }
  const uint32_t magic = static_cast<uint32_t>(ReadLE(bytes, 0, 4));
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic (not a TopoDB peer?)");
  }
  FrameHeader header;
  header.version = static_cast<uint16_t>(ReadLE(bytes, 4, 2));
  header.opcode = static_cast<uint16_t>(ReadLE(bytes, 6, 2));
  header.request_id = ReadLE(bytes, 8, 8);
  header.deadline_budget_ms = static_cast<uint32_t>(ReadLE(bytes, 16, 4));
  header.payload_len = static_cast<uint32_t>(ReadLE(bytes, 20, 4));
  if (header.version != kWireVersion) {
    return Status::Unsupported(
        "wire version " + std::to_string(header.version) +
        " (this build speaks " + std::to_string(kWireVersion) + ")");
  }
  if (header.payload_len > kMaxWirePayloadBytes) {
    return Status::InvalidArgument(
        "frame announces " + std::to_string(header.payload_len) +
        " payload bytes, above the " +
        std::to_string(kMaxWirePayloadBytes) + "-byte cap");
  }
  return header;
}

uint32_t WireStatusFromCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 1;
    case StatusCode::kInvalidInstance: return 2;
    case StatusCode::kNotFound: return 3;
    case StatusCode::kUnsupported: return 4;
    case StatusCode::kResourceExhausted: return 5;
    case StatusCode::kParseError: return 6;
    case StatusCode::kDeadlineExceeded: return 7;
    case StatusCode::kUnavailable: return 8;
    case StatusCode::kInternal: return 9;
    case StatusCode::kDataLoss: return 10;
  }
  return 9;
}

StatusCode CodeFromWireStatus(uint32_t wire) {
  switch (wire) {
    case 0: return StatusCode::kOk;
    case 1: return StatusCode::kInvalidArgument;
    case 2: return StatusCode::kInvalidInstance;
    case 3: return StatusCode::kNotFound;
    case 4: return StatusCode::kUnsupported;
    case 5: return StatusCode::kResourceExhausted;
    case 6: return StatusCode::kParseError;
    case 7: return StatusCode::kDeadlineExceeded;
    case 8: return StatusCode::kUnavailable;
    case 10: return StatusCode::kDataLoss;
    default: return StatusCode::kInternal;
  }
}

std::string EncodeResponsePayload(const Status& status,
                                  std::string_view body) {
  std::string out;
  AppendU32(&out, WireStatusFromCode(status.code()));
  AppendWireString(&out, status.message());
  out.append(body);
  return out;
}

Result<DecodedResponse> DecodeResponsePayload(std::string_view payload) {
  WireReader reader(payload);
  TOPODB_ASSIGN_OR_RETURN(uint32_t wire_status, reader.ReadU32());
  TOPODB_ASSIGN_OR_RETURN(std::string message, reader.ReadWireString());
  DecodedResponse response;
  const StatusCode code = CodeFromWireStatus(wire_status);
  response.status =
      code == StatusCode::kOk ? Status::OK() : Status(code, std::move(message));
  response.body = std::string(payload.substr(payload.size() -
                                             reader.remaining()));
  return response;
}

}  // namespace topodb
