#include "serve/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/net_util.h"

namespace sisg::serve {

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_id_(std::exchange(other.next_id_, 1)) {}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    next_id_ = std::exchange(other.next_id_, 1);
  }
  return *this;
}

StatusOr<ServeClient> ServeClient::Connect(const std::string& host,
                                           uint16_t port,
                                           const ClientOptions& options) {
  ServeClient c;
  SISG_RETURN_IF_ERROR(
      ConnectTcp(host, port, &c.fd_, options.connect_timeout_ms));
  if (options.io_timeout_ms > 0) {
    SISG_RETURN_IF_ERROR(SetSocketTimeouts(c.fd_, options.io_timeout_ms,
                                           options.io_timeout_ms));
  }
  return c;
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ServeClient::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Status ServeClient::SendQuery(uint64_t request_id, uint32_t item, uint32_t k) {
  if (fd_ < 0) return Status::FailedPrecondition("client: not connected");
  QueryRequest req;
  req.request_id = request_id;
  req.item = item;
  req.k = k;
  std::string out;
  EncodeQuery(req, &out);
  return WriteAllBlocking(fd_, out.data(), out.size());
}

Status ServeClient::ReadFrame(MsgType want, std::vector<uint8_t>* payload,
                              uint32_t* payload_len) {
  uint8_t header[kFrameHeaderBytes];
  SISG_RETURN_IF_ERROR(ReadAllBlocking(fd_, header, sizeof(header)));
  uint16_t magic;
  std::memcpy(&magic, header, sizeof(magic));
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("client: bad frame magic from server");
  }
  if (header[2] != kWireVersion) {
    return Status::InvalidArgument("client: unsupported wire version");
  }
  if (header[3] != static_cast<uint8_t>(want)) {
    return Status::InvalidArgument("client: unexpected message type " +
                                   std::to_string(header[3]));
  }
  uint32_t len;
  std::memcpy(&len, header + 4, sizeof(len));
  if (len > kMaxPayloadBytes) {
    return Status::InvalidArgument("client: oversized frame from server");
  }
  payload->resize(len);
  if (len > 0) {
    SISG_RETURN_IF_ERROR(ReadAllBlocking(fd_, payload->data(), len));
  }
  *payload_len = len;
  return Status::OK();
}

Status ServeClient::ReadResponse(QueryResponse* out) {
  if (fd_ < 0) return Status::FailedPrecondition("client: not connected");
  std::vector<uint8_t> payload;
  uint32_t len = 0;
  SISG_RETURN_IF_ERROR(ReadFrame(MsgType::kResponse, &payload, &len));
  return DecodeResponse(payload.data(), len, out);
}

Status ServeClient::Query(uint32_t item, uint32_t k, QueryResponse* out) {
  const uint64_t id = next_id_++;
  SISG_RETURN_IF_ERROR(SendQuery(id, item, k));
  SISG_RETURN_IF_ERROR(ReadResponse(out));
  if (out->request_id != id) {
    return Status::Internal("client: response id " +
                            std::to_string(out->request_id) +
                            " does not match request id " + std::to_string(id));
  }
  return Status::OK();
}

Status ServeClient::Health(HealthInfo* out) {
  if (fd_ < 0) return Status::FailedPrecondition("client: not connected");
  const uint64_t id = next_id_++;
  std::string req;
  EncodeHealth(id, &req);
  SISG_RETURN_IF_ERROR(WriteAllBlocking(fd_, req.data(), req.size()));
  std::vector<uint8_t> payload;
  uint32_t len = 0;
  SISG_RETURN_IF_ERROR(ReadFrame(MsgType::kHealthResp, &payload, &len));
  SISG_RETURN_IF_ERROR(DecodeHealthResp(payload.data(), len, out));
  if (out->request_id != id) {
    return Status::Internal("client: health response id mismatch");
  }
  return Status::OK();
}

}  // namespace sisg::serve
