// Wire-protocol golden tests: byte-exact encode vectors for every frame
// type (the wire format is a compatibility surface — any byte change here
// is a protocol break and must be deliberate), decode round trips, and
// malformed-frame cases that must fail with clean Status errors, never
// crash or read out of bounds.

#include <initializer_list>
#include <string>

#include <gtest/gtest.h>

#include "src/server/wire.h"

namespace topodb {
namespace {

std::string Bytes(std::initializer_list<int> bytes) {
  std::string out;
  out.reserve(bytes.size());
  for (int b : bytes) out.push_back(static_cast<char>(b));
  return out;
}

// The shared 4-byte magic + version prefix of every frame (wire v2).
std::string MagicV2() { return Bytes({0x54, 0x50, 0x44, 0x42, 0x02, 0x00}); }

TEST(WireGoldenTest, PingRequestFrame) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kPing);
  header.request_id = 7;
  header.deadline_budget_ms = 250;
  const std::string expected =
      MagicV2() + Bytes({0x01, 0x00,                                // opcode
                         0x07, 0, 0, 0, 0, 0, 0, 0,                // id
                         0xfa, 0x00, 0x00, 0x00,                   // budget
                         0x00, 0x00, 0x00, 0x00});                 // len
  EXPECT_EQ(EncodeFrame(header, ""), expected);
}

TEST(WireGoldenTest, ComputeInvariantRequestFrame) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kComputeInvariant);
  header.request_id = 0x0102030405060708ull;
  std::string payload;
  AppendInstanceRef(&payload, InstanceRef::Text("hi"));
  const std::string expected =
      MagicV2() + Bytes({0x02, 0x00,                                // opcode
                         0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
                         0x00, 0x00, 0x00, 0x00,                   // budget
                         0x07, 0x00, 0x00, 0x00,                   // len
                         0x00,  // ref kind: inline text
                         0x02, 0x00, 0x00, 0x00, 'h', 'i'});
  EXPECT_EQ(EncodeFrame(header, payload), expected);
}

TEST(WireGoldenTest, BatchInvariantsRequestFrame) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kBatchInvariants);
  header.request_id = 2;
  std::string payload;
  AppendU32(&payload, 2);
  AppendInstanceRef(&payload, InstanceRef::Text("a"));
  AppendInstanceRef(&payload, InstanceRef::Name("bc"));
  const std::string expected =
      MagicV2() + Bytes({0x03, 0x00,
                         0x02, 0, 0, 0, 0, 0, 0, 0,
                         0x00, 0x00, 0x00, 0x00,
                         0x11, 0x00, 0x00, 0x00,  // 4 + 6 + 7 payload bytes
                         0x02, 0x00, 0x00, 0x00,                   // count
                         0x00, 0x01, 0x00, 0x00, 0x00, 'a',        // text ref
                         0x01, 0x02, 0x00, 0x00, 0x00, 'b', 'c'}); // name ref
  EXPECT_EQ(EncodeFrame(header, payload), expected);
}

TEST(WireGoldenTest, EvalQueryRequestFrame) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kEvalQuery);
  header.request_id = 3;
  header.deadline_budget_ms = 1;
  std::string payload;
  AppendInstanceRef(&payload, InstanceRef::Text("I"));
  AppendWireString(&payload, "Q");
  const std::string expected =
      MagicV2() + Bytes({0x04, 0x00,
                         0x03, 0, 0, 0, 0, 0, 0, 0,
                         0x01, 0x00, 0x00, 0x00,
                         0x0b, 0x00, 0x00, 0x00,
                         0x00, 0x01, 0x00, 0x00, 0x00, 'I',
                         0x01, 0x00, 0x00, 0x00, 'Q'});
  EXPECT_EQ(EncodeFrame(header, payload), expected);
}

TEST(WireGoldenTest, IsoCheckRequestFrame) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kIsoCheck);
  header.request_id = 4;
  std::string payload;
  AppendInstanceRef(&payload, InstanceRef::Text("A"));
  AppendInstanceRef(&payload, InstanceRef::Name("B"));
  const std::string expected =
      MagicV2() + Bytes({0x05, 0x00,
                         0x04, 0, 0, 0, 0, 0, 0, 0,
                         0x00, 0x00, 0x00, 0x00,
                         0x0c, 0x00, 0x00, 0x00,
                         0x00, 0x01, 0x00, 0x00, 0x00, 'A',
                         0x01, 0x01, 0x00, 0x00, 0x00, 'B'});
  EXPECT_EQ(EncodeFrame(header, payload), expected);
}

TEST(WireGoldenTest, MetricsRequestFrame) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kMetrics);
  header.request_id = 5;
  const std::string expected =
      MagicV2() + Bytes({0x06, 0x00,
                         0x05, 0, 0, 0, 0, 0, 0, 0,
                         0x00, 0x00, 0x00, 0x00,
                         0x00, 0x00, 0x00, 0x00});
  EXPECT_EQ(EncodeFrame(header, ""), expected);
}

TEST(WireGoldenTest, LoadRequestFrame) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kLoad);
  header.request_id = 6;
  std::string payload;
  AppendWireString(&payload, "n");
  AppendWireString(&payload, "a: (0 0, 1 0, 1 1)");
  const std::string expected =
      MagicV2() + Bytes({0x07, 0x00,
                         0x06, 0, 0, 0, 0, 0, 0, 0,
                         0x00, 0x00, 0x00, 0x00,
                         0x1b, 0x00, 0x00, 0x00,  // 5 + 22 payload bytes
                         0x01, 0x00, 0x00, 0x00, 'n',
                         0x12, 0x00, 0x00, 0x00,
                         'a', ':', ' ', '(', '0', ' ', '0', ',', ' ',
                         '1', ' ', '0', ',', ' ', '1', ' ', '1', ')'});
  EXPECT_EQ(EncodeFrame(header, payload), expected);
}

TEST(WireGoldenTest, ListRequestFrame) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kList);
  header.request_id = 8;
  const std::string expected =
      MagicV2() + Bytes({0x08, 0x00,
                         0x08, 0, 0, 0, 0, 0, 0, 0,
                         0x00, 0x00, 0x00, 0x00,
                         0x00, 0x00, 0x00, 0x00});
  EXPECT_EQ(EncodeFrame(header, ""), expected);
}

TEST(WireGoldenTest, DescribeRequestFrame) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kDescribe);
  header.request_id = 9;
  std::string payload;
  AppendWireString(&payload, "fig6");
  const std::string expected =
      MagicV2() + Bytes({0x09, 0x00,
                         0x09, 0, 0, 0, 0, 0, 0, 0,
                         0x00, 0x00, 0x00, 0x00,
                         0x08, 0x00, 0x00, 0x00,
                         0x04, 0x00, 0x00, 0x00, 'f', 'i', 'g', '6'});
  EXPECT_EQ(EncodeFrame(header, payload), expected);
}

TEST(WireGoldenTest, OkResponseFrame) {
  FrameHeader header;
  header.opcode =
      static_cast<uint16_t>(Opcode::kPing) | kWireResponseBit;  // 0x81
  header.request_id = 7;
  const std::string payload = EncodeResponsePayload(Status::OK(), "");
  const std::string expected =
      MagicV2() + Bytes({0x81, 0x00,
                         0x07, 0, 0, 0, 0, 0, 0, 0,
                         0x00, 0x00, 0x00, 0x00,
                         0x08, 0x00, 0x00, 0x00,
                         0x00, 0x00, 0x00, 0x00,   // wire status OK
                         0x00, 0x00, 0x00, 0x00}); // empty message
  EXPECT_EQ(EncodeFrame(header, payload), expected);
}

TEST(WireGoldenTest, DataLossResponsePayload) {
  // Wire status 10 is the store-corruption signal; clients must be able
  // to distinguish it from Internal.
  const std::string payload =
      EncodeResponsePayload(Status::DataLoss("bad"), "");
  EXPECT_EQ(payload, Bytes({0x0a, 0x00, 0x00, 0x00,
                            0x03, 0x00, 0x00, 0x00, 'b', 'a', 'd'}));
}

TEST(WireGoldenTest, UnavailableResponsePayload) {
  // Load-shed responses are the backpressure signal; their encoding (wire
  // status 8) is part of the protocol contract.
  const std::string payload =
      EncodeResponsePayload(Status::Unavailable("full"), "");
  EXPECT_EQ(payload, Bytes({0x08, 0x00, 0x00, 0x00,
                            0x04, 0x00, 0x00, 0x00, 'f', 'u', 'l', 'l'}));
}

TEST(WireRoundTripTest, HeaderSurvivesEncodeDecode) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kEvalQuery);
  header.request_id = 0xdeadbeefcafef00dull;
  header.deadline_budget_ms = 12345;
  const std::string frame = EncodeFrame(header, "xyz");
  ASSERT_EQ(frame.size(), kWireHeaderBytes + 3);
  const Result<FrameHeader> decoded =
      DecodeFrameHeader(std::string_view(frame).substr(0, kWireHeaderBytes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, kWireVersion);
  EXPECT_EQ(decoded->opcode, header.opcode);
  EXPECT_EQ(decoded->request_id, header.request_id);
  EXPECT_EQ(decoded->deadline_budget_ms, 12345u);
  EXPECT_EQ(decoded->payload_len, 3u);
}

TEST(WireRoundTripTest, ResponsePayloadSurvivesEncodeDecode) {
  const std::string payload =
      EncodeResponsePayload(Status::DeadlineExceeded("spent"), "");
  const Result<DecodedResponse> decoded = DecodeResponsePayload(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded->status.message(), "spent");
  EXPECT_TRUE(decoded->body.empty());

  const std::string ok_payload =
      EncodeResponsePayload(Status::OK(), "body-bytes");
  const Result<DecodedResponse> ok = DecodeResponsePayload(ok_payload);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->status.ok());
  EXPECT_EQ(ok->body, "body-bytes");
}

TEST(WireRoundTripTest, EveryStatusCodeSurvivesTheWire) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kInvalidInstance, StatusCode::kNotFound,
        StatusCode::kUnsupported, StatusCode::kResourceExhausted,
        StatusCode::kParseError, StatusCode::kDeadlineExceeded,
        StatusCode::kUnavailable, StatusCode::kInternal,
        StatusCode::kDataLoss}) {
    EXPECT_EQ(CodeFromWireStatus(WireStatusFromCode(code)), code);
  }
  // Codes from a newer peer degrade to Internal instead of failing.
  EXPECT_EQ(CodeFromWireStatus(0xffffffffu), StatusCode::kInternal);
}

TEST(WireRoundTripTest, InstanceRefSurvivesEncodeDecode) {
  for (const InstanceRef& ref :
       {InstanceRef::Text("a: (0 0, 1 0, 1 1)"), InstanceRef::Name("fig6"),
        InstanceRef::Text("")}) {
    std::string payload;
    AppendInstanceRef(&payload, ref);
    WireReader reader(payload);
    const Result<InstanceRef> decoded = reader.ReadInstanceRef();
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->kind, ref.kind);
    EXPECT_EQ(decoded->value, ref.value);
    EXPECT_TRUE(reader.ExpectEnd().ok());
  }
}

TEST(WireMalformedTest, TruncatedHeaderIsCleanError) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kPing);
  const std::string frame = EncodeFrame(header, "");
  for (size_t len = 0; len < kWireHeaderBytes; ++len) {
    const Result<FrameHeader> decoded =
        DecodeFrameHeader(std::string_view(frame).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "accepted " << len << "-byte header";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireMalformedTest, BadMagicIsCleanError) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kPing);
  std::string frame = EncodeFrame(header, "");
  frame[0] = 'X';
  const Result<FrameHeader> decoded = DecodeFrameHeader(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireMalformedTest, UnknownVersionIsUnsupported) {
  FrameHeader header;
  header.version = 9;
  header.opcode = static_cast<uint16_t>(Opcode::kPing);
  const Result<FrameHeader> decoded =
      DecodeFrameHeader(EncodeFrame(header, ""));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnsupported);
}

TEST(WireMalformedTest, OversizedLengthIsRejectedBeforeAllocation) {
  // A corrupted length field must be rejected from the header alone —
  // the peer never tries to buffer the announced bytes.
  std::string frame = MagicV2() + Bytes({0x01, 0x00,
                                         0, 0, 0, 0, 0, 0, 0, 0,
                                         0, 0, 0, 0,
                                         0xff, 0xff, 0xff, 0xff});
  const Result<FrameHeader> decoded = DecodeFrameHeader(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireMalformedTest, UnknownInstanceRefKindIsCleanError) {
  // Kind bytes beyond kCatalogName must be rejected, not misread: a newer
  // client cannot make this server treat a name as inline text.
  std::string payload;
  AppendU8(&payload, 2);
  AppendWireString(&payload, "x");
  WireReader reader(payload);
  const Result<InstanceRef> decoded = reader.ReadInstanceRef();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireMalformedTest, TruncatedInstanceRefIsCleanError) {
  std::string payload;
  AppendInstanceRef(&payload, InstanceRef::Name("fig6"));
  for (size_t len = 0; len < payload.size(); ++len) {
    WireReader reader(std::string_view(payload).substr(0, len));
    const Result<InstanceRef> decoded = reader.ReadInstanceRef();
    ASSERT_FALSE(decoded.ok()) << "accepted " << len << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireMalformedTest, TruncatedWireStringIsCleanError) {
  std::string payload;
  AppendU32(&payload, 100);  // Announces 100 bytes...
  payload += "short";        // ...delivers 5.
  WireReader reader(payload);
  const Result<std::string> s = reader.ReadWireString();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireMalformedTest, ReaderRejectsTruncationAndTrailingBytes) {
  std::string payload;
  AppendU32(&payload, 7);
  WireReader reader(payload);
  ASSERT_TRUE(reader.ReadU32().ok());
  EXPECT_FALSE(reader.ReadU8().ok());   // Past the end.
  EXPECT_FALSE(reader.ReadU64().ok());
  EXPECT_TRUE(reader.ExpectEnd().ok());

  WireReader trailing(payload);
  EXPECT_FALSE(trailing.ExpectEnd().ok());  // 4 unread bytes.
}

// The one BATCH_INVARIANTS decoder the server and the router share: refs
// round-trip in order, and a count past kMaxBatchItems is refused from the
// count alone.
TEST(WireMalformedTest, BatchRequestDecodesUpToTheItemCap) {
  std::string payload;
  AppendU32(&payload, 2);
  AppendInstanceRef(&payload, InstanceRef::Text("A: (0 0, 1 0, 1 1)"));
  AppendInstanceRef(&payload, InstanceRef::Name("fig1a"));
  const auto refs = DecodeBatchRequest(payload);
  ASSERT_TRUE(refs.ok()) << refs.status().ToString();
  ASSERT_EQ(refs->size(), 2u);
  EXPECT_EQ((*refs)[1].kind, InstanceRef::Kind::kCatalogName);
  EXPECT_EQ((*refs)[1].value, "fig1a");
  EXPECT_FALSE(DecodeBatchRequest(payload + "x").ok());  // Trailing byte.

  std::string oversized;
  AppendU32(&oversized, kMaxBatchItems + 1);
  EXPECT_EQ(DecodeBatchRequest(oversized).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireMalformedTest, TruncatedResponsePayloadIsCleanError) {
  const std::string payload =
      EncodeResponsePayload(Status::NotFound("missing"), "");
  for (size_t len = 0; len < payload.size(); ++len) {
    const Result<DecodedResponse> decoded =
        DecodeResponsePayload(std::string_view(payload).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "accepted " << len << " bytes";
  }
}

TEST(WireOpcodeTest, KnownOpcodesAndNames) {
  for (Opcode op : {Opcode::kPing, Opcode::kComputeInvariant,
                    Opcode::kBatchInvariants, Opcode::kEvalQuery,
                    Opcode::kIsoCheck, Opcode::kMetrics, Opcode::kLoad,
                    Opcode::kList, Opcode::kDescribe}) {
    EXPECT_TRUE(IsKnownOpcode(static_cast<uint16_t>(op)));
  }
  EXPECT_FALSE(IsKnownOpcode(0));
  EXPECT_FALSE(IsKnownOpcode(10));
  EXPECT_FALSE(IsKnownOpcode(static_cast<uint16_t>(Opcode::kPing) |
                             kWireResponseBit));
  EXPECT_EQ(OpcodeName(static_cast<uint16_t>(Opcode::kPing)), "PING");
  EXPECT_EQ(OpcodeName(static_cast<uint16_t>(Opcode::kBatchInvariants)),
            "BATCH_INVARIANTS");
  EXPECT_EQ(OpcodeName(static_cast<uint16_t>(Opcode::kLoad)), "LOAD");
  EXPECT_EQ(OpcodeName(static_cast<uint16_t>(Opcode::kList)), "LIST");
  EXPECT_EQ(OpcodeName(static_cast<uint16_t>(Opcode::kDescribe)),
            "DESCRIBE");
  EXPECT_EQ(OpcodeName(static_cast<uint16_t>(Opcode::kPing) |
                       kWireResponseBit),
            "PING_RESPONSE");
  EXPECT_EQ(OpcodeName(99), "?");
}

}  // namespace
}  // namespace topodb
