#include "serve/wire.h"

#include <cstring>

namespace sisg::serve {

namespace {

void AppendU16(uint16_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendU32(uint32_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendU64(uint64_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendF32(float v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T ReadScalar(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

void AppendHeader(MsgType type, uint32_t payload_len, std::string* out) {
  AppendU16(kFrameMagic, out);
  out->push_back(static_cast<char>(kWireVersion));
  out->push_back(static_cast<char>(type));
  AppendU32(payload_len, out);
}

/// Type bytes 3 and 4 (the retired PING/PONG) are unknown like any other.
bool ValidType(uint8_t t) {
  switch (static_cast<MsgType>(t)) {
    case MsgType::kQuery:
    case MsgType::kResponse:
    case MsgType::kHealth:
    case MsgType::kHealthResp:
      return true;
  }
  return false;
}

bool ValidWireStatus(uint8_t s) {
  return s <= static_cast<uint8_t>(WireStatus::kDeadlineExceeded);
}

}  // namespace

const char* WireStatusName(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "OK";
    case WireStatus::kBusy: return "BUSY";
    case WireStatus::kBadRequest: return "BAD_REQUEST";
    case WireStatus::kShuttingDown: return "SHUTTING_DOWN";
    case WireStatus::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
  }
  return "UNKNOWN";
}

void EncodeQuery(const QueryRequest& req, std::string* out) {
  AppendHeader(MsgType::kQuery, 16, out);
  AppendU64(req.request_id, out);
  AppendU32(req.item, out);
  AppendU32(req.k, out);
}

void EncodeResponse(const QueryResponse& resp, std::string* out) {
  const uint32_t n = static_cast<uint32_t>(resp.results.size());
  AppendHeader(MsgType::kResponse, 24 + n * 8, out);
  AppendU64(resp.request_id, out);
  out->push_back(static_cast<char>(resp.status));
  out->append(3, '\0');
  AppendU32(n, out);
  AppendU64(resp.model_version, out);
  for (const ScoredId& r : resp.results) {
    AppendU32(r.id, out);
    AppendF32(r.score, out);
  }
}

void EncodeHealth(uint64_t request_id, std::string* out) {
  AppendHeader(MsgType::kHealth, 8, out);
  AppendU64(request_id, out);
}

void EncodeHealthResp(const HealthInfo& info, std::string* out) {
  AppendHeader(MsgType::kHealthResp, 28, out);
  AppendU64(info.request_id, out);
  out->push_back(info.ready ? 1 : 0);
  out->append(3, '\0');
  AppendU32(info.num_items, out);
  AppendU64(info.model_version, out);
  AppendU32(info.dim, out);
}

Status DecodeQuery(const uint8_t* payload, uint32_t len, QueryRequest* out) {
  if (len != 16) {
    return Status::InvalidArgument("query frame: payload must be 16 bytes, got " +
                                   std::to_string(len));
  }
  out->request_id = ReadScalar<uint64_t>(payload);
  out->item = ReadScalar<uint32_t>(payload + 8);
  out->k = ReadScalar<uint32_t>(payload + 12);
  return Status::OK();
}

Status DecodeResponse(const uint8_t* payload, uint32_t len,
                      QueryResponse* out) {
  if (len < 24) {
    return Status::InvalidArgument(
        "response frame: payload shorter than fixed fields (" +
        std::to_string(len) + " bytes)");
  }
  out->request_id = ReadScalar<uint64_t>(payload);
  const uint8_t status = payload[8];
  if (!ValidWireStatus(status)) {
    return Status::InvalidArgument("response frame: unknown status " +
                                   std::to_string(status));
  }
  out->status = static_cast<WireStatus>(status);
  const uint32_t n = ReadScalar<uint32_t>(payload + 12);
  out->model_version = ReadScalar<uint64_t>(payload + 16);
  if (static_cast<uint64_t>(n) * 8 + 24 != len) {
    return Status::InvalidArgument(
        "response frame: result count " + std::to_string(n) +
        " inconsistent with payload of " + std::to_string(len) + " bytes");
  }
  out->results.resize(n);
  const uint8_t* p = payload + 24;
  for (uint32_t i = 0; i < n; ++i, p += 8) {
    out->results[i].id = ReadScalar<uint32_t>(p);
    out->results[i].score = ReadScalar<float>(p + 4);
  }
  return Status::OK();
}

Status DecodeRequestId(const uint8_t* payload, uint32_t len, uint64_t* out) {
  if (len != 8) {
    return Status::InvalidArgument("ping/pong frame: payload must be 8 bytes");
  }
  *out = ReadScalar<uint64_t>(payload);
  return Status::OK();
}

Status DecodeHealthResp(const uint8_t* payload, uint32_t len,
                        HealthInfo* out) {
  if (len != 28) {
    return Status::InvalidArgument(
        "health response frame: payload must be 28 bytes, got " +
        std::to_string(len));
  }
  out->request_id = ReadScalar<uint64_t>(payload);
  const uint8_t ready = payload[8];
  if (ready > 1) {
    return Status::InvalidArgument("health response frame: ready flag " +
                                   std::to_string(ready) + " not 0/1");
  }
  out->ready = ready != 0;
  out->num_items = ReadScalar<uint32_t>(payload + 12);
  out->model_version = ReadScalar<uint64_t>(payload + 16);
  out->dim = ReadScalar<uint32_t>(payload + 24);
  return Status::OK();
}

Status FrameReader::Feed(const void* data, size_t n) {
  if (!poison_.ok()) return poison_;
  // Drop already-consumed prefix before growing (amortized O(1) per byte).
  if (consumed_ > 0 && (consumed_ >= buf_.size() || consumed_ > (1u << 16))) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const uint8_t* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
  if (buffered() > kMaxPayloadBytes + kFrameHeaderBytes) {
    poison_ = Status::InvalidArgument(
        "frame reader: peer buffered more than one maximum frame without "
        "completing any");
    return poison_;
  }
  return Status::OK();
}

Status FrameReader::Next(Frame* frame, bool* have) {
  *have = false;
  if (!poison_.ok()) return poison_;
  if (buffered() < kFrameHeaderBytes) return Status::OK();
  const uint8_t* h = buf_.data() + consumed_;
  uint16_t magic;
  std::memcpy(&magic, h, sizeof(magic));
  if (magic != kFrameMagic) {
    poison_ = Status::InvalidArgument("frame header: bad magic");
    return poison_;
  }
  if (h[2] != kWireVersion) {
    poison_ = Status::InvalidArgument("frame header: unsupported version " +
                                      std::to_string(h[2]));
    return poison_;
  }
  if (!ValidType(h[3])) {
    poison_ = Status::InvalidArgument("frame header: unknown message type " +
                                      std::to_string(h[3]));
    return poison_;
  }
  uint32_t payload_len;
  std::memcpy(&payload_len, h + 4, sizeof(payload_len));
  if (payload_len > kMaxPayloadBytes) {
    poison_ = Status::InvalidArgument("frame header: oversized payload of " +
                                      std::to_string(payload_len) + " bytes");
    return poison_;
  }
  if (buffered() < kFrameHeaderBytes + payload_len) return Status::OK();
  frame->type = static_cast<MsgType>(h[3]);
  frame->payload = h + kFrameHeaderBytes;
  frame->payload_len = payload_len;
  consumed_ += kFrameHeaderBytes + payload_len;
  *have = true;
  return Status::OK();
}

}  // namespace sisg::serve
