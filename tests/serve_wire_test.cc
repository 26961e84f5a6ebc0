// Frame-parser hardening for the serving wire protocol, in the io_fuzz_test
// mold: well-formed frames roundtrip byte-exactly through any split of the
// byte stream, and every malformed input — truncated header, truncated
// payload, bad magic/version/type, oversized or inconsistent declared
// lengths, plain garbage — yields a typed InvalidArgument and a poisoned
// stream. Never a crash, never a partially decoded request.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/wire.h"

namespace sisg::serve {
namespace {

std::string EncodeOneQuery(uint64_t id, uint32_t item, uint32_t k) {
  QueryRequest req;
  req.request_id = id;
  req.item = item;
  req.k = k;
  std::string out;
  EncodeQuery(req, &out);
  return out;
}

/// Feeds `bytes` in chunks of `chunk` and collects every complete frame's
/// decoded query. Any parser error fails the test.
std::vector<QueryRequest> ParseAll(const std::string& bytes, size_t chunk) {
  FrameReader reader;
  std::vector<QueryRequest> out;
  for (size_t off = 0; off < bytes.size(); off += chunk) {
    const size_t n = std::min(chunk, bytes.size() - off);
    EXPECT_TRUE(reader.Feed(bytes.data() + off, n).ok());
    for (;;) {
      Frame frame;
      bool have = false;
      const Status st = reader.Next(&frame, &have);
      EXPECT_TRUE(st.ok()) << st.ToString();
      if (!have) break;
      EXPECT_EQ(frame.type, MsgType::kQuery);
      QueryRequest req;
      EXPECT_TRUE(DecodeQuery(frame.payload, frame.payload_len, &req).ok());
      out.push_back(req);
    }
  }
  return out;
}

TEST(ServeWireTest, QueryRoundtripsThroughEverySplit) {
  std::string bytes;
  for (uint32_t i = 0; i < 17; ++i) {
    bytes += EncodeOneQuery(1000 + i, i * 3, 10 + i);
  }
  for (const size_t chunk : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                             size_t{16}, bytes.size()}) {
    const auto parsed = ParseAll(bytes, chunk);
    ASSERT_EQ(parsed.size(), 17u) << "chunk=" << chunk;
    for (uint32_t i = 0; i < 17; ++i) {
      EXPECT_EQ(parsed[i].request_id, 1000 + i);
      EXPECT_EQ(parsed[i].item, i * 3);
      EXPECT_EQ(parsed[i].k, 10 + i);
    }
  }
}

TEST(ServeWireTest, ResponseRoundtrip) {
  QueryResponse resp;
  resp.request_id = 77;
  resp.status = WireStatus::kOk;
  resp.results = {{0.5f, 3}, {-0.25f, 9}, {0.125f, 1}};
  std::string bytes;
  EncodeResponse(resp, &bytes);

  FrameReader reader;
  ASSERT_TRUE(reader.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  bool have = false;
  ASSERT_TRUE(reader.Next(&frame, &have).ok());
  ASSERT_TRUE(have);
  ASSERT_EQ(frame.type, MsgType::kResponse);
  QueryResponse got;
  ASSERT_TRUE(DecodeResponse(frame.payload, frame.payload_len, &got).ok());
  EXPECT_EQ(got.request_id, 77u);
  EXPECT_EQ(got.status, WireStatus::kOk);
  ASSERT_EQ(got.results.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got.results[i].id, resp.results[i].id);
    EXPECT_EQ(got.results[i].score, resp.results[i].score);
  }
}

TEST(ServeWireTest, TruncatedFrameIsNotYetNotError) {
  const std::string bytes = EncodeOneQuery(1, 2, 3);
  // Every proper prefix parses to "need more bytes", cleanly.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameReader reader;
    ASSERT_TRUE(reader.Feed(bytes.data(), cut).ok());
    Frame frame;
    bool have = true;
    EXPECT_TRUE(reader.Next(&frame, &have).ok()) << "cut=" << cut;
    EXPECT_FALSE(have) << "cut=" << cut;
  }
}

/// Corrupts one header byte and expects a typed, sticky error.
void ExpectPoisoned(std::string bytes) {
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  bool have = false;
  const Status st = reader.Next(&frame, &have);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  // Sticky: the stream stays poisoned even after more valid bytes arrive.
  const std::string good = EncodeOneQuery(1, 2, 3);
  (void)reader.Feed(good.data(), good.size());
  const Status again = reader.Next(&frame, &have);
  EXPECT_FALSE(again.ok());
}

TEST(ServeWireTest, BadMagicPoisons) {
  std::string bytes = EncodeOneQuery(1, 2, 3);
  bytes[0] ^= 0xFF;
  ExpectPoisoned(bytes);
}

TEST(ServeWireTest, BadVersionPoisons) {
  std::string bytes = EncodeOneQuery(1, 2, 3);
  bytes[2] = static_cast<char>(kWireVersion + 9);
  ExpectPoisoned(bytes);
}

TEST(ServeWireTest, BadTypePoisons) {
  std::string bytes = EncodeOneQuery(1, 2, 3);
  bytes[3] = 0;  // no such MsgType
  ExpectPoisoned(bytes);
  bytes[3] = 99;
  ExpectPoisoned(bytes);
}

TEST(ServeWireTest, RetiredPingPongTypesPoison) {
  // Type bytes 3 and 4 were PING/PONG; HEALTH is the only probe now, and
  // a well-formed 8-byte frame of either old type is an unknown type.
  for (const char retired : {3, 4}) {
    std::string bytes;
    EncodeHealth(42, &bytes);
    bytes[3] = retired;
    ExpectPoisoned(bytes);
  }
}

TEST(ServeWireTest, OversizedDeclaredLengthPoisons) {
  std::string bytes = EncodeOneQuery(1, 2, 3);
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(&bytes[4], &huge, sizeof(huge));
  ExpectPoisoned(bytes);
}

TEST(ServeWireTest, FeedBoundCapsHostilePeer) {
  // A peer that streams more than one max-size frame's worth of bytes
  // without any of it parsing is cut off by Feed itself — per-connection
  // buffering is bounded no matter what arrives.
  FrameReader reader;
  std::string header = EncodeOneQuery(1, 2, 3).substr(0, kFrameHeaderBytes);
  const uint32_t declared = kMaxPayloadBytes;  // legal bound, never completed
  std::memcpy(&header[4], &declared, sizeof(declared));
  ASSERT_TRUE(reader.Feed(header.data(), header.size()).ok());
  const std::string junk(1 << 16, 'x');
  Status st = Status::OK();
  size_t fed = 0;
  while (st.ok() && fed < (kMaxPayloadBytes + (2u << 16))) {
    st = reader.Feed(junk.data(), junk.size());
    fed += junk.size();
  }
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(ServeWireTest, InconsistentPayloadLengthsAreTyped) {
  QueryRequest req;
  uint8_t buf[64] = {0};
  EXPECT_FALSE(DecodeQuery(buf, 15, &req).ok());   // one byte short
  EXPECT_FALSE(DecodeQuery(buf, 17, &req).ok());   // one byte long
  QueryResponse resp;
  EXPECT_FALSE(DecodeResponse(buf, 8, &resp).ok());  // header cut off
  // Declared n = 3 results but only room for 1.
  uint8_t body[16 + 8] = {0};
  const uint32_t n = 3;
  std::memcpy(body + 12, &n, sizeof(n));
  EXPECT_FALSE(DecodeResponse(body, sizeof(body), &resp).ok());
  // Out-of-range status byte.
  uint8_t ok_body[16] = {0};
  ok_body[8] = 200;
  EXPECT_FALSE(DecodeResponse(ok_body, sizeof(ok_body), &resp).ok());
  uint64_t id;
  EXPECT_FALSE(DecodeRequestId(buf, 7, &id).ok());
}

TEST(ServeWireTest, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(20260809);
  for (int trial = 0; trial < 200; ++trial) {
    FrameReader reader;
    const size_t total = 1 + rng() % 4096;
    std::vector<uint8_t> bytes(total);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng());
    size_t off = 0;
    bool poisoned = false;
    while (off < total && !poisoned) {
      const size_t n = std::min<size_t>(1 + rng() % 97, total - off);
      if (!reader.Feed(bytes.data() + off, n).ok()) break;
      off += n;
      for (;;) {
        Frame frame;
        bool have = false;
        const Status st = reader.Next(&frame, &have);
        if (!st.ok()) {
          EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
          poisoned = true;
          break;
        }
        if (!have) break;
        // A random 8-byte run can legitimately spell a valid header; the
        // frame must still be internally consistent.
        EXPECT_LE(frame.payload_len, kMaxPayloadBytes);
      }
    }
  }
}

TEST(ServeWireTest, GarbageBetweenValidFramesPoisonsNotCrashes) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::string bytes = EncodeOneQuery(1, 2, 3);
    for (int i = 0; i < 32; ++i) bytes.push_back(static_cast<char>(rng()));
    FrameReader reader;
    ASSERT_TRUE(reader.Feed(bytes.data(), bytes.size()).ok());
    Frame frame;
    bool have = false;
    ASSERT_TRUE(reader.Next(&frame, &have).ok());
    ASSERT_TRUE(have);  // the leading valid frame still parses
    // After it, the garbage either needs more bytes or poisons — both fine,
    // neither crashes nor yields a phantom frame of the wrong shape.
    const Status st = reader.Next(&frame, &have);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    }
  }
}

// --- Boundary frames: the exact edges of the payload cap. ---

TEST(ServeWireTest, PayloadAtExactCapParses) {
  // Declared length == kMaxPayloadBytes is legal; the reader must buffer
  // and deliver it, rejecting only cap + 1 (OversizedDeclaredLengthPoisons).
  std::string bytes = EncodeOneQuery(1, 2, 3).substr(0, kFrameHeaderBytes);
  bytes[3] = static_cast<char>(MsgType::kResponse);
  const uint32_t declared = kMaxPayloadBytes;
  std::memcpy(&bytes[4], &declared, sizeof(declared));
  bytes.append(kMaxPayloadBytes, '\0');
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  bool have = false;
  ASSERT_TRUE(reader.Next(&frame, &have).ok());
  ASSERT_TRUE(have);
  EXPECT_EQ(frame.payload_len, kMaxPayloadBytes);
  // All-zero bytes are not a consistent response body; the decode error is
  // typed, never a crash or a partial result set.
  QueryResponse resp;
  EXPECT_FALSE(DecodeResponse(frame.payload, frame.payload_len, &resp).ok());
}

TEST(ServeWireTest, ZeroLengthPayloadIsAFrameNotAnError) {
  std::string bytes = EncodeOneQuery(1, 2, 3).substr(0, kFrameHeaderBytes);
  const uint32_t zero = 0;
  std::memcpy(&bytes[4], &zero, sizeof(zero));
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  bool have = false;
  ASSERT_TRUE(reader.Next(&frame, &have).ok());
  ASSERT_TRUE(have);
  EXPECT_EQ(frame.payload_len, 0u);
  // The empty payload then fails the per-message decoder with a typed
  // error (a query needs 16 bytes), and the stream itself is NOT poisoned:
  // framing was legal, only the body was short.
  QueryRequest req;
  EXPECT_FALSE(DecodeQuery(frame.payload, frame.payload_len, &req).ok());
  const std::string good = EncodeOneQuery(9, 8, 7);
  ASSERT_TRUE(reader.Feed(good.data(), good.size()).ok());
  ASSERT_TRUE(reader.Next(&frame, &have).ok());
  ASSERT_TRUE(have);
  ASSERT_TRUE(DecodeQuery(frame.payload, frame.payload_len, &req).ok());
  EXPECT_EQ(req.request_id, 9u);
}

TEST(ServeWireTest, MaxResultsResponseRoundtripsAtTheCap) {
  // k == kMaxResultsPerResponse is the largest legal response; its frame
  // must sit exactly at (or under) the payload cap and roundtrip intact.
  QueryResponse resp;
  resp.request_id = 424242;
  resp.status = WireStatus::kOk;
  resp.model_version = 17;
  resp.results.reserve(kMaxResultsPerResponse);
  for (uint32_t i = 0; i < kMaxResultsPerResponse; ++i) {
    resp.results.push_back({static_cast<float>(i) * 0.5f, i});
  }
  std::string bytes;
  EncodeResponse(resp, &bytes);
  ASSERT_LE(bytes.size() - kFrameHeaderBytes, kMaxPayloadBytes);

  FrameReader reader;
  ASSERT_TRUE(reader.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  bool have = false;
  ASSERT_TRUE(reader.Next(&frame, &have).ok());
  ASSERT_TRUE(have);
  QueryResponse got;
  ASSERT_TRUE(DecodeResponse(frame.payload, frame.payload_len, &got).ok());
  EXPECT_EQ(got.request_id, 424242u);
  EXPECT_EQ(got.model_version, 17u);
  ASSERT_EQ(got.results.size(), size_t{kMaxResultsPerResponse});
  EXPECT_EQ(got.results.front().id, 0u);
  EXPECT_EQ(got.results.back().id, kMaxResultsPerResponse - 1);
}

TEST(ServeWireTest, ResponseCarriesModelVersion) {
  QueryResponse resp;
  resp.request_id = 5;
  resp.status = WireStatus::kDeadlineExceeded;
  resp.model_version = 0xDEADBEEFCAFEull;
  std::string bytes;
  EncodeResponse(resp, &bytes);
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  bool have = false;
  ASSERT_TRUE(reader.Next(&frame, &have).ok());
  ASSERT_TRUE(have);
  QueryResponse got;
  ASSERT_TRUE(DecodeResponse(frame.payload, frame.payload_len, &got).ok());
  EXPECT_EQ(got.status, WireStatus::kDeadlineExceeded);
  EXPECT_EQ(got.model_version, 0xDEADBEEFCAFEull);
  EXPECT_TRUE(got.results.empty());
}

TEST(ServeWireTest, HealthRoundtrip) {
  std::string bytes;
  EncodeHealth(31337, &bytes);
  HealthInfo info;
  info.request_id = 31337;
  info.ready = true;
  info.model_version = 12;
  info.num_items = 100000;
  info.dim = 128;
  EncodeHealthResp(info, &bytes);

  FrameReader reader;
  ASSERT_TRUE(reader.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  bool have = false;
  ASSERT_TRUE(reader.Next(&frame, &have).ok());
  ASSERT_TRUE(have);
  ASSERT_EQ(frame.type, MsgType::kHealth);
  uint64_t id = 0;
  ASSERT_TRUE(DecodeRequestId(frame.payload, frame.payload_len, &id).ok());
  EXPECT_EQ(id, 31337u);

  ASSERT_TRUE(reader.Next(&frame, &have).ok());
  ASSERT_TRUE(have);
  ASSERT_EQ(frame.type, MsgType::kHealthResp);
  HealthInfo got;
  ASSERT_TRUE(DecodeHealthResp(frame.payload, frame.payload_len, &got).ok());
  EXPECT_EQ(got.request_id, 31337u);
  EXPECT_TRUE(got.ready);
  EXPECT_EQ(got.model_version, 12u);
  EXPECT_EQ(got.num_items, 100000u);
  EXPECT_EQ(got.dim, 128u);

  // Malformed health responses are typed errors: wrong length, bad bool.
  uint8_t short_body[27] = {0};
  EXPECT_FALSE(DecodeHealthResp(short_body, sizeof(short_body), &got).ok());
  uint8_t bad_bool[28] = {0};
  bad_bool[8] = 7;
  EXPECT_FALSE(DecodeHealthResp(bad_bool, sizeof(bad_bool), &got).ok());
}

}  // namespace
}  // namespace sisg::serve
