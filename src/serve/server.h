#ifndef SISG_SERVE_SERVER_H_
#define SISG_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/batcher.h"
#include "serve/model_registry.h"
#include "serve/wire.h"

namespace sisg::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the actual port back via port().
  uint16_t port = 0;
  /// Accept/read/write front-end threads. Each runs its own epoll loop and
  /// owns the connections it accepted (EPOLLEXCLUSIVE kernel-balanced
  /// accepts), so no connection state is ever shared between I/O threads.
  uint32_t io_threads = 2;
  /// Hard cap on concurrent connections; excess accepts are closed on
  /// arrival (serve.conn_rejected) — bounded state, like everything else.
  uint32_t max_connections = 1024;
  /// Evict a connection that has been silent — or has held a partial frame
  /// open — for this long (serve.idle_evicted). This is the slow-loris
  /// defense: a peer trickling one byte per interval still cannot pin a
  /// connection slot forever, because an UNFINISHED frame is held to the
  /// same clock as total silence. 0 = never evict (library default; the
  /// sisg_serve tool defaults it on).
  uint32_t idle_timeout_ms = 0;
  BatchOptions batch;
};

/// Long-lived TCP serving process front end: length-prefixed frames in,
/// a shared SIMD scan ring in the middle (QueryBatcher), frames out.
///
/// The model comes from a ModelRegistry, so a background reloader can hot
/// swap versions under live traffic: each scan ring pins one snapshot,
/// responses carry the version that answered, and HEALTH frames report
/// readiness + live version without touching the query path.
///
/// Data path: an I/O thread parses a query frame and submits it to the
/// batcher with a callback; the callback (on a ring thread) encodes
/// the response into the connection's write buffer and wakes the owning I/O
/// thread through its eventfd — epoll_ctl is only ever called by the owning
/// thread. Admission rejections (queue full / draining) are answered
/// inline with typed BUSY / SHUTTING_DOWN responses, never silent drops;
/// requests that overstay batch.deadline_us are shed with typed
/// DEADLINE_EXCEEDED.
///
/// Backpressure contract: queued requests are bounded by
/// batch.queue_capacity, connections by max_connections, per-connection
/// unparsed input by the wire module's frame bound, and responses by the
/// clients' own read pace (slow readers accumulate bytes only as fast as
/// they issue requests). Nothing in the pipeline grows without bound under
/// overload.
///
/// Shutdown() is a graceful drain: stop accepting, flush every queued
/// request through the scan path, push every pending response out, then
/// close. Safe to call from a signal-watcher thread.
class ServeServer {
 public:
  /// Serves versions published to `registry` (not owned; must outlive the
  /// server). At least one snapshot must be published before Start().
  ServeServer(ModelRegistry* registry, const ServerOptions& options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds, starts the batcher and the I/O threads. Fails (typed) when the
  /// port is taken or no non-empty model snapshot is published.
  Status Start();

  /// The bound port (valid after Start), for ephemeral-port callers.
  uint16_t port() const { return bound_port_; }

  /// Graceful drain; idempotent, blocks until the server is fully down.
  void Shutdown();

  /// Live connection count (tests).
  size_t num_connections() const {
    return static_cast<size_t>(
        num_connections_.load(std::memory_order_relaxed));
  }

  QueryBatcher* batcher() { return batcher_.get(); }
  ModelRegistry* registry() { return registry_; }

 private:
  struct IoThread;
  struct Connection;

  void IoLoop(IoThread* io);
  void HandleReadable(IoThread* io, const std::shared_ptr<Connection>& conn);
  void HandleFrame(IoThread* io, const std::shared_ptr<Connection>& conn,
                   MsgType type, const uint8_t* payload, uint32_t len);
  void EnqueueWrite(const std::shared_ptr<Connection>& conn,
                    std::string bytes);
  /// Writes until EAGAIN; arms/disarms EPOLLOUT. Owning I/O thread only.
  void FlushConnection(IoThread* io, const std::shared_ptr<Connection>& conn);
  void CloseConnection(IoThread* io, const std::shared_ptr<Connection>& conn);
  void AcceptPending(IoThread* io);
  /// Evicts idle / frame-stalled connections; owning I/O thread only.
  void SweepIdle(IoThread* io, uint64_t now_ns);

  ModelRegistry* const registry_;
  const ServerOptions options_;
  std::unique_ptr<QueryBatcher> batcher_;
  std::vector<std::unique_ptr<IoThread>> io_threads_;
  /// Atomic because I/O threads read it in the accept path while Shutdown
  /// runs; the fd itself is closed only after those threads have joined.
  std::atomic<int> listen_fd_{-1};
  uint16_t bound_port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> num_connections_{0};
  /// Response bytes enqueued but not yet handed to the kernel; Shutdown
  /// waits for this to hit zero so drained replies actually reach clients.
  std::atomic<int64_t> pending_tx_bytes_{0};
};

}  // namespace sisg::serve

#endif  // SISG_SERVE_SERVER_H_
