#ifndef SISG_SERVE_WIRE_H_
#define SISG_SERVE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/top_k.h"

namespace sisg::serve {

/// Length-prefixed binary framing for the serving protocol (little-endian,
/// the only byte order this engine runs on).
///
///   frame   := header payload
///   header  := magic:u16 version:u8 type:u8 payload_len:u32
///   payload := payload_len bytes, layout per type
///
/// Payloads:
///   kQuery      request_id:u64 item:u32 k:u32
///   kResponse   request_id:u64 status:u8 pad:u8[3] n:u32 model_version:u64
///               (id:u32 score:f32)*n
///   kHealth     request_id:u64
///   kHealthResp request_id:u64 ready:u8 pad:u8[3] num_items:u32
///               model_version:u64 dim:u32
///
/// Responses carry the version of the snapshot that answered, so clients can
/// observe hot swaps in-band (and tests can compare results against the
/// exact offline model that produced them). kHealth is the readiness probe:
/// ready=1 means the listener is accepting AND a validated snapshot is
/// published — orchestration gates on this, not on the process being alive.
///
/// Every field of every inbound byte sequence is validated before any of it
/// reaches a request struct: bad magic/version/type and oversized or
/// inconsistent lengths are typed InvalidArgument errors (the connection is
/// then closed by the caller), and a partial frame is simply "not yet" —
/// never a partial decode.

constexpr uint16_t kFrameMagic = 0x5153;  // "SQ" little-endian
constexpr uint8_t kWireVersion = 1;
constexpr size_t kFrameHeaderBytes = 8;
/// Upper bound on a single payload. Generous for any sane top-k response
/// (k=100k) while keeping a garbage length prefix from triggering a huge
/// allocation.
constexpr uint32_t kMaxPayloadBytes = 1u << 20;
/// Largest result count a response frame can carry inside kMaxPayloadBytes
/// (24 fixed bytes + 8 per result). Servers clamp k to this so they never
/// emit a frame their own wire spec rejects as oversized.
constexpr uint32_t kMaxResultsPerResponse = (kMaxPayloadBytes - 24) / 8;

enum class MsgType : uint8_t {
  kQuery = 1,
  kResponse = 2,
  kHealth = 5,
  kHealthResp = 6,
};

/// Application-level result code carried in a response frame.
enum class WireStatus : uint8_t {
  kOk = 0,
  /// Admission control rejected the request (queue full). The client may
  /// retry after backoff; the connection stays healthy.
  kBusy = 1,
  /// The request was structurally valid but unserviceable (e.g. k == 0).
  kBadRequest = 2,
  /// The server is draining; no new work is accepted.
  kShuttingDown = 3,
  /// The request overstayed its per-request serving deadline while queued;
  /// it was shed without touching the engine. Retryable, like kBusy.
  kDeadlineExceeded = 4,
};

struct QueryRequest {
  uint64_t request_id = 0;
  uint32_t item = 0;
  uint32_t k = 0;
};

struct QueryResponse {
  uint64_t request_id = 0;
  WireStatus status = WireStatus::kOk;
  /// Version of the published snapshot that answered (0 when no snapshot
  /// was consulted, e.g. BUSY/BAD_REQUEST rejections before admission).
  uint64_t model_version = 0;
  std::vector<ScoredId> results;
};

/// Readiness + live-version report carried by a kHealthResp frame.
struct HealthInfo {
  uint64_t request_id = 0;
  bool ready = false;
  uint64_t model_version = 0;
  uint32_t num_items = 0;
  uint32_t dim = 0;
};

/// A fully delimited frame as produced by FrameReader. `payload` points into
/// the reader's buffer and is valid only until the next Next()/Feed() call.
struct Frame {
  MsgType type = MsgType::kQuery;
  const uint8_t* payload = nullptr;
  uint32_t payload_len = 0;
};

// --- encoding (appends to `out`) ---
void EncodeQuery(const QueryRequest& req, std::string* out);
void EncodeResponse(const QueryResponse& resp, std::string* out);
void EncodeHealth(uint64_t request_id, std::string* out);
void EncodeHealthResp(const HealthInfo& info, std::string* out);

// --- payload decoding (full validation; never partial) ---
Status DecodeQuery(const uint8_t* payload, uint32_t len, QueryRequest* out);
Status DecodeResponse(const uint8_t* payload, uint32_t len,
                      QueryResponse* out);
Status DecodeRequestId(const uint8_t* payload, uint32_t len, uint64_t* out);
Status DecodeHealthResp(const uint8_t* payload, uint32_t len,
                        HealthInfo* out);

/// Incremental frame parser. Feed() appends raw bytes; Next() yields one
/// complete frame at a time or reports that more bytes are needed. A header
/// that can never become a valid frame (bad magic, unknown version or type,
/// oversized declared length) poisons the stream: Next() returns the typed
/// error from then on and the caller must close the connection.
class FrameReader {
 public:
  /// Appends bytes from the socket. Returns InvalidArgument when the total
  /// buffered-but-unparsed data exceeds the per-frame bound plus header
  /// (cannot happen to a well-behaved peer, caps memory for a hostile one).
  Status Feed(const void* data, size_t n);

  /// Parses the next complete frame into `*frame`.
  ///   kOk               -> *have = true, frame valid until next call
  ///   kOk, *have=false  -> need more bytes
  ///   error             -> stream poisoned (protocol violation)
  Status Next(Frame* frame, bool* have);

  /// Bytes currently buffered and not yet consumed as frames.
  size_t buffered() const { return buf_.size() - consumed_; }

 private:
  std::vector<uint8_t> buf_;
  size_t consumed_ = 0;
  Status poison_;  // sticky protocol error
};

const char* WireStatusName(WireStatus s);

}  // namespace sisg::serve

#endif  // SISG_SERVE_WIRE_H_
