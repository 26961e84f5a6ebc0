#ifndef SISG_SERVE_CLIENT_H_
#define SISG_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/top_k.h"
#include "serve/wire.h"

namespace sisg::serve {

/// Bounded-wait knobs for a client connection. A hung or wedged server
/// turns into a typed kDeadlineExceeded Status instead of blocking the
/// caller forever. After an io timeout the stream may be desynchronized
/// (a frame half-read/half-written) — the caller must reconnect.
struct ClientOptions {
  /// TCP connect budget; 0 = the OS default (minutes).
  uint32_t connect_timeout_ms = 0;
  /// Per-recv/send budget (SO_RCVTIMEO/SO_SNDTIMEO); 0 = wait forever.
  uint32_t io_timeout_ms = 0;
};

/// Blocking client for the sisg_serve wire protocol. One connection, not
/// thread-safe; pipelining is supported by splitting Send/Read (request ids
/// let the caller match out-of-order... responses are actually always
/// returned in request order per connection, but ids make the pairing
/// explicit and survive interleaved BUSY rejections).
class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient() { Close(); }

  ServeClient(ServeClient&& other) noexcept;
  ServeClient& operator=(ServeClient&& other) noexcept;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  static StatusOr<ServeClient> Connect(const std::string& host, uint16_t port,
                                       const ClientOptions& options = {});

  bool connected() const { return fd_ >= 0; }
  void Close();
  /// Shuts the connection down in both directions but keeps the descriptor:
  /// a thread blocked in ReadResponse wakes with an error (closing the fd
  /// would not wake it). Close() still releases the descriptor.
  void Shutdown();

  /// One synchronous round trip. A transport/protocol failure is a non-OK
  /// Status; an application-level rejection (BUSY etc.) is OK with the
  /// response's status field set.
  Status Query(uint32_t item, uint32_t k, QueryResponse* out);

  /// Pipelined sends: fire a query without waiting.
  Status SendQuery(uint64_t request_id, uint32_t item, uint32_t k);
  /// Reads the next response frame (blocking).
  Status ReadResponse(QueryResponse* out);

  /// Readiness round trip: reports whether the server would answer queries
  /// right now, plus the live model version/shape.
  Status Health(HealthInfo* out);

 private:
  Status ReadFrame(MsgType want, std::vector<uint8_t>* payload,
                   uint32_t* payload_len);

  int fd_ = -1;
  uint64_t next_id_ = 1;
};

}  // namespace sisg::serve

#endif  // SISG_SERVE_CLIENT_H_
