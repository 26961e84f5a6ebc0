// Serving property suite: generated wire-frame byte streams — valid frames
// of every type, interleaved garbage, oversized headers, truncation — fed to
// FrameReader in generated chunkings never crash it, recover exactly the
// frames before the first poison, and behave identically regardless of how
// the bytes were split. Plus the coalescing contract: batched answers are
// bit-identical to per-item offline queries on generated engines.

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/matching_engine.h"
#include "gtest/gtest.h"
#include "prop.h"
#include "serve/wire.h"

namespace sisg::prop {
namespace {

using serve::DecodeHealthResp;
using serve::DecodeQuery;
using serve::DecodeResponse;
using serve::EncodeHealth;
using serve::EncodeHealthResp;
using serve::EncodeQuery;
using serve::EncodeResponse;
using serve::Frame;
using serve::FrameReader;
using serve::HealthInfo;
using serve::MsgType;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::WireStatus;

// ----------------------------- frame scripts -----------------------------

enum class SegKind : int {
  kValidFrame = 0,   // a well-formed frame of a random type
  kGarbage = 1,      // bytes whose first byte breaks the magic -> poison
  kOversized = 2,    // valid magic/version but payload_len > cap -> poison
  kTruncated = 3,    // a valid frame cut short; only legal as the LAST
                     // segment (mid-stream it would corrupt the framing)
  kRetiredType = 4,  // a well-formed 8-byte frame of the retired PING (3)
                     // or PONG (4) type -> poison
};

struct Segment {
  SegKind kind = SegKind::kValidFrame;
  std::string bytes;
  // For kValidFrame: the frame FrameReader must hand back.
  MsgType type = MsgType::kQuery;
  std::string payload;
};

struct WireScript {
  std::vector<Segment> segments;
  std::vector<size_t> chunk_sizes;  // cyclic feed sizes, all >= 1
};

std::string EncodeRandomFrame(Rng& rng, MsgType* type_out) {
  std::string out;
  switch (rng.UniformU64(4)) {
    case 0: {
      QueryRequest req;
      req.request_id = rng.Next();
      req.item = static_cast<uint32_t>(rng.UniformU64(1u << 20));
      req.k = static_cast<uint32_t>(rng.UniformU64(200));
      EncodeQuery(req, &out);
      *type_out = MsgType::kQuery;
      break;
    }
    case 1: {
      QueryResponse resp;
      resp.request_id = rng.Next();
      resp.status = static_cast<WireStatus>(rng.UniformU64(5));
      resp.model_version = rng.Next();
      const size_t n = rng.UniformU64(20);
      for (size_t i = 0; i < n; ++i) {
        resp.results.push_back(
            {static_cast<float>(rng.Gaussian()),
             static_cast<uint32_t>(rng.UniformU64(1u << 20))});
      }
      EncodeResponse(resp, &out);
      *type_out = MsgType::kResponse;
      break;
    }
    case 2:
      EncodeHealth(rng.Next(), &out);
      *type_out = MsgType::kHealth;
      break;
    default: {
      HealthInfo info;
      info.request_id = rng.Next();
      info.ready = rng.Bernoulli(0.5);
      info.model_version = rng.Next();
      info.num_items = static_cast<uint32_t>(rng.UniformU64(1u << 20));
      info.dim = static_cast<uint32_t>(rng.UniformU64(512));
      EncodeHealthResp(info, &out);
      *type_out = MsgType::kHealthResp;
      break;
    }
  }
  return out;
}

Gen<WireScript> WireScriptGen() {
  return Gen<WireScript>([](Rng& rng) {
    WireScript s;
    const size_t n_segments = 1 + rng.UniformU64(12);
    bool poisoned = false;
    for (size_t i = 0; i < n_segments && !poisoned; ++i) {
      Segment seg;
      const bool last = (i + 1 == n_segments);
      const uint64_t roll = rng.UniformU64(10);
      if (roll >= 8) {  // 20%: a stream-ending anomaly
        if (last && rng.Bernoulli(0.5)) {
          seg.kind = SegKind::kTruncated;
          MsgType t;
          const std::string full = EncodeRandomFrame(rng, &t);
          // Keep at least one byte and strictly fewer than the whole frame.
          seg.bytes = full.substr(0, 1 + rng.UniformU64(full.size() - 1));
        } else if (rng.Bernoulli(0.25)) {
          seg.kind = SegKind::kRetiredType;
          EncodeHealth(rng.Next(), &seg.bytes);
          seg.bytes[3] = static_cast<char>(3 + rng.UniformU64(2));
          poisoned = true;
        } else if (rng.Bernoulli(0.5)) {
          seg.kind = SegKind::kGarbage;
          // At least a full header's worth: the reader only inspects (and
          // poisons on) a bad magic once kFrameHeaderBytes are buffered.
          const size_t len = serve::kFrameHeaderBytes + rng.UniformU64(33);
          for (size_t b = 0; b < len; ++b) {
            seg.bytes.push_back(static_cast<char>(rng.UniformU64(256)));
          }
          // Magic is 0x5153 little-endian; a first byte != 0x53 cannot
          // start a frame, so the poison point is deterministic.
          if (static_cast<uint8_t>(seg.bytes[0]) == 0x53) seg.bytes[0] = 0x00;
          poisoned = true;
        } else {
          seg.kind = SegKind::kOversized;
          // Valid magic + version, declared payload over the 1MB cap.
          const uint32_t len =
              serve::kMaxPayloadBytes + 1 +
              static_cast<uint32_t>(rng.UniformU64(1u << 20));
          seg.bytes.resize(serve::kFrameHeaderBytes);
          seg.bytes[0] = 0x53;
          seg.bytes[1] = 0x51;
          seg.bytes[2] = 1;  // version
          seg.bytes[3] = static_cast<char>(MsgType::kHealth);
          std::memcpy(&seg.bytes[4], &len, 4);
          poisoned = true;
        }
        if (seg.kind == SegKind::kTruncated) poisoned = true;  // stream ends
      } else {
        seg.kind = SegKind::kValidFrame;
        seg.bytes = EncodeRandomFrame(rng, &seg.type);
        seg.payload = seg.bytes.substr(serve::kFrameHeaderBytes);
      }
      s.segments.push_back(std::move(seg));
    }
    const size_t n_chunks = 1 + rng.UniformU64(4);
    for (size_t i = 0; i < n_chunks; ++i) {
      s.chunk_sizes.push_back(1 + rng.UniformU64(64));
    }
    return s;
  });
}

std::string ShowScript(const WireScript& s) {
  std::ostringstream os;
  os << "{segments=[";
  for (size_t i = 0; i < s.segments.size(); ++i) {
    if (i) os << ", ";
    switch (s.segments[i].kind) {
      case SegKind::kValidFrame:
        os << "frame(type=" << static_cast<int>(s.segments[i].type)
           << ", payload=" << s.segments[i].payload.size() << "B)";
        break;
      case SegKind::kGarbage:
        os << "garbage(" << s.segments[i].bytes.size() << "B)";
        break;
      case SegKind::kOversized:
        os << "oversized_header";
        break;
      case SegKind::kTruncated:
        os << "truncated(" << s.segments[i].bytes.size() << "B)";
        break;
      case SegKind::kRetiredType:
        os << "retired_type(" << static_cast<int>(s.segments[i].bytes[3])
           << ")";
        break;
    }
  }
  os << "], chunks=" << ShowValue(s.chunk_sizes) << "}";
  return os.str();
}

struct Recovered {
  std::vector<std::pair<MsgType, std::string>> frames;
  bool poisoned = false;
  bool starved = false;  // ended on kOk/have=false (waiting for bytes)
};

/// Feeds the script's bytes through a FrameReader in the cyclic chunking and
/// drains frames after every feed. Returns what came out; reports a verdict
/// string on any contract violation.
std::string RunReader(const WireScript& s, Recovered* out) {
  std::string stream;
  for (const Segment& seg : s.segments) stream += seg.bytes;
  FrameReader reader;
  size_t off = 0, chunk_idx = 0;
  bool poisoned = false;
  while (off < stream.size()) {
    const size_t want = s.chunk_sizes[chunk_idx++ % s.chunk_sizes.size()];
    const size_t n = std::min(want, stream.size() - off);
    const Status fed = reader.Feed(stream.data() + off, n);
    off += n;
    if (!fed.ok()) return "Feed rejected in-bound data: " + fed.ToString();
    Frame f;
    bool have = false;
    for (;;) {
      const Status st = reader.Next(&f, &have);
      if (!st.ok()) {
        poisoned = true;
        // Sticky poison: every later call must fail the same way.
        const Status again = reader.Next(&f, &have);
        if (again.ok()) return "poison was not sticky";
        break;
      }
      if (!have) break;
      out->frames.emplace_back(
          f.type, std::string(reinterpret_cast<const char*>(f.payload),
                              f.payload_len));
    }
    if (poisoned) break;
  }
  out->poisoned = poisoned;
  if (!poisoned) {
    Frame f;
    bool have = false;
    const Status st = reader.Next(&f, &have);
    if (!st.ok()) return "reader errored after clean drain: " + st.ToString();
    if (have) return "reader produced a frame from no bytes";
    out->starved = reader.buffered() > 0;
  }
  return "";
}

TEST(PropWire, GeneratedStreamsRecoverFramesAndPoisonDeterministically) {
  const Result r = ForAllSeeded<WireScript>(
      "wire_scripts", 200, WireScriptGen(),
      [](const WireScript& s) -> std::string {
        // Model: every valid frame before the first anomaly is recovered;
        // garbage, oversized and retired-type headers poison the stream;
        // truncation starves it.
        std::vector<std::pair<MsgType, std::string>> want;
        bool want_poison = false, want_starved = false;
        for (const Segment& seg : s.segments) {
          if (seg.kind == SegKind::kValidFrame) {
            want.emplace_back(seg.type, seg.payload);
          } else if (seg.kind == SegKind::kTruncated) {
            want_starved = true;
          } else {
            want_poison = true;
          }
        }
        Recovered got;
        const std::string verdict = RunReader(s, &got);
        if (!verdict.empty()) return verdict;
        if (got.poisoned != want_poison) {
          return want_poison ? "anomaly did not poison the reader"
                             : "clean stream was poisoned";
        }
        if (!want_poison && got.starved != want_starved) {
          return want_starved ? "truncated tail did not leave reader waiting"
                              : "reader buffered bytes after a clean stream";
        }
        if (got.frames.size() != want.size()) {
          return "recovered " + std::to_string(got.frames.size()) +
                 " frames, want " + std::to_string(want.size());
        }
        for (size_t i = 0; i < want.size(); ++i) {
          if (got.frames[i].first != want[i].first ||
              got.frames[i].second != want[i].second) {
            return "frame " + std::to_string(i) + " differs from encoded";
          }
        }
        return "";
      },
      nullptr, ShowScript);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropWire, ReaderBehaviorIsInvariantToChunking) {
  const Result r = ForAllSeeded<WireScript>(
      "wire_chunking_invariance", 150, WireScriptGen(),
      [](const WireScript& s) -> std::string {
        Recovered ref;
        std::string verdict = RunReader(s, &ref);
        if (!verdict.empty()) return verdict;
        for (const size_t chunk : {size_t{1}, size_t{3}, size_t{4096}}) {
          WireScript alt = s;
          alt.chunk_sizes = {chunk};
          Recovered got;
          verdict = RunReader(alt, &got);
          if (!verdict.empty()) return verdict;
          if (got.poisoned != ref.poisoned || got.frames != ref.frames) {
            return "chunk size " + std::to_string(chunk) +
                   " changed reader behavior";
          }
        }
        return "";
      },
      nullptr, ShowScript);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropWire, QueryAndResponsePayloadsRoundTrip) {
  const Result r = ForAllSeeded<uint64_t>(
      "wire_payload_round_trip", 200,
      Gen<uint64_t>([](Rng& rng) { return rng.Next(); }),
      [](const uint64_t& seed) -> std::string {
        Rng rng(seed);
        QueryRequest req;
        req.request_id = rng.Next();
        req.item = static_cast<uint32_t>(rng.UniformU64(UINT32_MAX));
        req.k = static_cast<uint32_t>(rng.UniformU64(UINT32_MAX));
        std::string buf;
        EncodeQuery(req, &buf);
        QueryRequest back;
        Status st = DecodeQuery(
            reinterpret_cast<const uint8_t*>(buf.data()) +
                serve::kFrameHeaderBytes,
            static_cast<uint32_t>(buf.size() - serve::kFrameHeaderBytes),
            &back);
        if (!st.ok()) return "query decode failed: " + st.ToString();
        if (back.request_id != req.request_id || back.item != req.item ||
            back.k != req.k) {
          return "query did not round-trip";
        }

        QueryResponse resp;
        resp.request_id = rng.Next();
        resp.status = static_cast<WireStatus>(rng.UniformU64(5));
        resp.model_version = rng.Next();
        const size_t n = rng.UniformU64(50);
        for (size_t i = 0; i < n; ++i) {
          resp.results.push_back(
              {static_cast<float>(rng.Gaussian()),
               static_cast<uint32_t>(rng.UniformU64(UINT32_MAX))});
        }
        buf.clear();
        EncodeResponse(resp, &buf);
        QueryResponse rback;
        st = DecodeResponse(
            reinterpret_cast<const uint8_t*>(buf.data()) +
                serve::kFrameHeaderBytes,
            static_cast<uint32_t>(buf.size() - serve::kFrameHeaderBytes),
            &rback);
        if (!st.ok()) return "response decode failed: " + st.ToString();
        if (rback.request_id != resp.request_id ||
            rback.status != resp.status ||
            rback.model_version != resp.model_version ||
            rback.results.size() != resp.results.size()) {
          return "response header did not round-trip";
        }
        for (size_t i = 0; i < n; ++i) {
          if (rback.results[i].id != resp.results[i].id ||
              std::memcmp(&rback.results[i].score, &resp.results[i].score,
                          sizeof(float)) != 0) {
            return "result " + std::to_string(i) + " did not round-trip";
          }
        }

        HealthInfo info;
        info.request_id = rng.Next();
        info.ready = rng.Bernoulli(0.5);
        info.model_version = rng.Next();
        info.num_items = static_cast<uint32_t>(rng.UniformU64(UINT32_MAX));
        info.dim = static_cast<uint32_t>(rng.UniformU64(UINT32_MAX));
        buf.clear();
        EncodeHealthResp(info, &buf);
        HealthInfo hback;
        st = DecodeHealthResp(
            reinterpret_cast<const uint8_t*>(buf.data()) +
                serve::kFrameHeaderBytes,
            static_cast<uint32_t>(buf.size() - serve::kFrameHeaderBytes),
            &hback);
        if (!st.ok()) return "health decode failed: " + st.ToString();
        if (hback.request_id != info.request_id || hback.ready != info.ready ||
            hback.model_version != info.model_version ||
            hback.num_items != info.num_items || hback.dim != info.dim) {
          return "health info did not round-trip";
        }
        return "";
      });
  EXPECT_TRUE(r.ok) << r.message;
}

// --------------------- coalesced serving bit-identity ---------------------

struct BatchCase {
  uint64_t engine_seed = 0;
  uint32_t num_items = 2;
  uint32_t dim = 4;
  bool int8 = false;
  std::vector<uint32_t> items;
  std::vector<uint32_t> ks;
};

std::string ShowBatch(const BatchCase& c) {
  std::ostringstream os;
  os << "{engine_seed=" << c.engine_seed << ", num_items=" << c.num_items
     << ", dim=" << c.dim << ", int8=" << c.int8
     << ", items=" << ShowValue(c.items) << ", ks=" << ShowValue(c.ks) << "}";
  return os.str();
}

TEST(PropWire, CoalescedBatchAnswersBitIdenticalToOfflineQueries) {
  const auto gen = Gen<BatchCase>([](Rng& rng) {
    BatchCase c;
    c.engine_seed = rng.Next();
    c.num_items = static_cast<uint32_t>(rng.UniformInt(2, 60));
    c.dim = static_cast<uint32_t>(rng.UniformInt(2, 48));
    c.int8 = rng.Bernoulli(0.5);
    const size_t n = 1 + rng.UniformU64(24);
    for (size_t i = 0; i < n; ++i) {
      c.items.push_back(static_cast<uint32_t>(rng.UniformU64(c.num_items)));
      // k stresses the edges: 0, 1, around num_items, and beyond.
      c.ks.push_back(static_cast<uint32_t>(
          rng.UniformU64(c.num_items + 3)));
    }
    return c;
  });
  const Result r = ForAllSeeded<BatchCase>(
      "coalesced_bit_identity", 120, gen,
      [](const BatchCase& c) -> std::string {
        Rng rng(c.engine_seed);
        std::vector<float> in(static_cast<size_t>(c.num_items) * c.dim);
        for (float& v : in) v = static_cast<float>(rng.Gaussian());
        MatchingEngine engine;
        const Status st = engine.Build(std::move(in), {}, c.num_items, c.dim,
                                       SimilarityMode::kCosineInput);
        if (!st.ok()) return "engine build failed: " + st.ToString();
        if (c.int8) {
          const Status q = engine.EnableInt8();
          if (!q.ok()) return "int8 enable failed: " + q.ToString();
        }

        std::vector<std::vector<ScoredId>> offline;
        for (size_t i = 0; i < c.items.size(); ++i) {
          offline.push_back(engine.Query(c.items[i], c.ks[i]));
        }

        ThreadPool pool(3);
        const auto check =
            [&](const std::vector<std::vector<ScoredId>>& got,
                const char* what) -> std::string {
          if (got.size() != offline.size()) {
            return std::string(what) + ": batch size mismatch";
          }
          for (size_t i = 0; i < got.size(); ++i) {
            if (got[i].size() != offline[i].size()) {
              return std::string(what) + ": query " + std::to_string(i) +
                     " result count differs";
            }
            for (size_t j = 0; j < got[i].size(); ++j) {
              if (got[i][j].id != offline[i][j].id ||
                  std::memcmp(&got[i][j].score, &offline[i][j].score,
                              sizeof(float)) != 0) {
                return std::string(what) + ": query " + std::to_string(i) +
                       " rank " + std::to_string(j) + " not bit-identical";
              }
            }
          }
          return "";
        };

        std::string verdict =
            check(engine.QueryBatchCoalesced(c.items.data(), c.ks.data(),
                                             c.items.size()),
                  "serial");
        if (verdict.empty()) {
          verdict =
              check(engine.QueryBatchCoalesced(c.items.data(), c.ks.data(),
                                               c.items.size(), &pool),
                    "pooled");
        }
        return verdict;
      },
      nullptr, ShowBatch);
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace sisg::prop
