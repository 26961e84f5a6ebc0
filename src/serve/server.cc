#include "serve/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/flat_hash.h"
#include "common/logging.h"
#include "common/net_util.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace sisg::serve {

namespace {

// epoll user-data tags for the two non-connection fds. Connection events
// carry the connection's fd (a small non-negative int), so these sentinels
// can never collide with one.
constexpr uint64_t kTagListener = ~0ull;
constexpr uint64_t kTagEventFd = ~0ull - 1;

struct ServerMetrics {
  obs::Counter* accepted;
  obs::Counter* conn_rejected;
  obs::Counter* requests;
  obs::Counter* protocol_errors;
  obs::Counter* idle_evicted;
  obs::Counter* tx_bytes;
  obs::Counter* rx_bytes;
  obs::Gauge* connections;
  obs::Histogram* request_seconds;

  static const ServerMetrics& Get() {
    static const ServerMetrics m = {
        obs::MetricsRegistry::Global().counter("serve.accepted"),
        obs::MetricsRegistry::Global().counter("serve.conn_rejected"),
        obs::MetricsRegistry::Global().counter("serve.requests"),
        obs::MetricsRegistry::Global().counter("serve.protocol_errors"),
        obs::MetricsRegistry::Global().counter("serve.idle_evicted"),
        obs::MetricsRegistry::Global().counter("serve.tx_bytes"),
        obs::MetricsRegistry::Global().counter("serve.rx_bytes"),
        obs::MetricsRegistry::Global().gauge("serve.connections"),
        obs::MetricsRegistry::Global().histogram("serve.request_seconds"),
    };
    return m;
  }
};

}  // namespace

/// One connection, owned by exactly one I/O thread. The write side is the
/// only cross-thread surface (batcher callbacks append responses), so it
/// sits behind its own mutex; everything else is touched only by the owner.
struct ServeServer::Connection {
  int fd = -1;
  IoThread* owner = nullptr;
  FrameReader reader;

  std::mutex wmu;
  std::string outbuf;          // guarded by wmu
  bool closed = false;         // guarded by wmu
  bool flush_queued = false;   // guarded by wmu (in owner's pending list?)
  bool epollout_armed = false; // owner thread only

  // Idle/slow-loris eviction state, owner thread only. last_rx_ns advances
  // on every received byte; partial_since_ns is set while an incomplete
  // frame sits in the reader (cleared when the frame completes), so a peer
  // trickling bytes cannot keep a half-frame open past the idle timeout.
  uint64_t last_rx_ns = 0;
  uint64_t partial_since_ns = 0;
};

struct ServeServer::IoThread {
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;
  /// fd -> connection, owner thread only. Flat open-addressing table: fds
  /// are small dense ints, so lookups on the per-event hot path are one
  /// probe into a contiguous array instead of a node chase. Same stale-
  /// event contract as before: always look the fd up before dereferencing
  /// anything (see the event-loop comment below).
  FlatHashMap<int, std::shared_ptr<Connection>> conns;
  /// Connections with freshly queued output, filled by any thread.
  std::mutex pmu;
  std::vector<std::shared_ptr<Connection>> pending_flush;
  /// Next idle sweep (owner thread only); sweeps are throttled to ~100ms so
  /// eviction stays O(conns / 10) per second even under event storms.
  uint64_t next_sweep_ns = 0;
};

ServeServer::ServeServer(ModelRegistry* registry, const ServerOptions& options)
    : registry_(registry), options_(options) {}

ServeServer::~ServeServer() { Shutdown(); }

Status ServeServer::Start() {
  if (started_.load()) return Status::FailedPrecondition("server: already started");
  {
    const SnapshotPtr snap = registry_ ? registry_->Acquire() : nullptr;
    if (snap == nullptr || snap->engine().num_items() == 0) {
      return Status::FailedPrecondition(
          "server: no model snapshot published");
    }
  }
  int listen_fd = -1;
  SISG_RETURN_IF_ERROR(CreateTcpListener(options_.host, options_.port,
                                         /*backlog=*/256, &listen_fd,
                                         &bound_port_));
  SISG_RETURN_IF_ERROR(SetNonBlocking(listen_fd, true));
  listen_fd_.store(listen_fd, std::memory_order_release);

  batcher_ = std::make_unique<QueryBatcher>(registry_, options_.batch);
  batcher_->Start();

  const uint32_t n = std::max(1u, options_.io_threads);
  for (uint32_t i = 0; i < n; ++i) {
    auto io = std::make_unique<IoThread>();
    io->epoll_fd = ::epoll_create1(0);
    io->event_fd = ::eventfd(0, EFD_NONBLOCK);
    if (io->epoll_fd < 0 || io->event_fd < 0) {
      return Status::IOError("server: epoll/eventfd creation failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagEventFd;
    ::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, io->event_fd, &ev);
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.u64 = kTagListener;
    if (::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) != 0) {
      return Status::IOError(std::string("server: epoll_ctl(listener): ") +
                             std::strerror(errno));
    }
    io_threads_.push_back(std::move(io));
  }
  started_.store(true);
  for (auto& io : io_threads_) {
    IoThread* p = io.get();
    p->thread = std::thread([this, p] { IoLoop(p); });
  }
  LOG_INFO << "sisg_serve: listening on " << options_.host << ":"
           << bound_port_ << " (" << n << " io threads, max_batch="
           << batcher_->options().max_batch << ", max_wait_us="
           << batcher_->options().max_wait_us << ")";
  return Status::OK();
}

void ServeServer::IoLoop(IoThread* io) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (true) {
    const int nev = ::epoll_wait(io->epoll_fd, events, kMaxEvents, 100);
    if (nev < 0 && errno != EINTR) break;
    // Accepts run after every connection event in the batch: a new
    // connection must not reuse an fd number closed earlier in this batch
    // while stale events for that number are still queued behind it.
    bool accept_ready = false;
    for (int i = 0; i < nev; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kTagListener) {
        accept_ready = true;
        continue;
      }
      if (tag == kTagEventFd) {
        uint64_t junk;
        while (::read(io->event_fd, &junk, sizeof(junk)) > 0) {
        }
        std::vector<std::shared_ptr<Connection>> pending;
        {
          std::lock_guard<std::mutex> lock(io->pmu);
          pending.swap(io->pending_flush);
        }
        for (const auto& conn : pending) {
          {
            std::lock_guard<std::mutex> lock(conn->wmu);
            conn->flush_queued = false;
            if (conn->closed) continue;
          }
          FlushConnection(io, conn);
        }
        continue;
      }
      // Connection events carry the fd, never a pointer: an earlier event
      // in this same batch (eventfd flush hitting a write error, EPOLLHUP
      // on another entry) may have closed the connection and released the
      // last shared_ptr, so the map lookup must come before any dereference.
      const std::shared_ptr<Connection>* slot =
          io->conns.Find(static_cast<int>(tag));
      if (slot == nullptr) continue;  // closed earlier this wake
      const std::shared_ptr<Connection> conn = *slot;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(io, conn);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(io, conn);
      if ((events[i].events & EPOLLOUT) &&
          io->conns.Contains(conn->fd)) {
        FlushConnection(io, conn);
      }
    }
    if (accept_ready && !stopping_.load(std::memory_order_relaxed)) {
      AcceptPending(io);
    }
    if (options_.idle_timeout_ms > 0 &&
        !stopping_.load(std::memory_order_relaxed)) {
      const uint64_t now_ns = MonotonicNanos();
      if (now_ns >= io->next_sweep_ns) {
        io->next_sweep_ns = now_ns + 100'000'000;  // ~100ms between sweeps
        SweepIdle(io, now_ns);
      }
    }
    // Drain mode: Shutdown keeps started_ true until every queued response
    // byte is on the wire (it watches pending_tx_bytes_, bounded), so by
    // the time this flips the flushing is done — just exit.
    if (stopping_.load(std::memory_order_relaxed) &&
        !started_.load(std::memory_order_relaxed)) {
      break;
    }
  }
  // Teardown: close every connection this thread owns.
  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(io->conns.size());
  for (const auto& [fd, conn] : io->conns) {
    (void)fd;
    remaining.push_back(conn);
  }
  for (const auto& conn : remaining) CloseConnection(io, conn);
}

void ServeServer::AcceptPending(IoThread* io) {
  const int listen_fd = listen_fd_.load(std::memory_order_acquire);
  if (listen_fd < 0) return;
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (or a racing thread took it)
    if (num_connections_.fetch_add(1, std::memory_order_relaxed) + 1 >
        static_cast<int64_t>(options_.max_connections)) {
      num_connections_.fetch_sub(1, std::memory_order_relaxed);
      ::close(fd);
      if (obs::MetricsEnabled()) ServerMetrics::Get().conn_rejected->Increment();
      continue;
    }
    (void)SetNonBlocking(fd, true);
    (void)SetTcpNoDelay(fd);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->owner = io;
    conn->last_rx_ns = MonotonicNanos();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<uint64_t>(fd);
    if (::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      num_connections_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    io->conns.TryEmplace(fd, std::move(conn));
    if (obs::MetricsEnabled()) {
      ServerMetrics::Get().accepted->Increment();
      ServerMetrics::Get().connections->Set(
          static_cast<double>(num_connections_.load(std::memory_order_relaxed)));
    }
  }
}

void ServeServer::HandleReadable(IoThread* io,
                                 const std::shared_ptr<Connection>& conn) {
  uint8_t buf[16 * 1024];
  while (true) {
    const ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r == 0) {  // peer closed
      CloseConnection(io, conn);
      return;
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(io, conn);
      return;
    }
    conn->last_rx_ns = MonotonicNanos();
    if (obs::MetricsEnabled()) {
      ServerMetrics::Get().rx_bytes->Add(static_cast<uint64_t>(r));
    }
    if (const Status st = conn->reader.Feed(buf, static_cast<size_t>(r));
        !st.ok()) {
      if (obs::MetricsEnabled()) {
        ServerMetrics::Get().protocol_errors->Increment();
      }
      LOG_WARN << "serve: protocol error, closing connection: "
               << st.ToString();
      CloseConnection(io, conn);
      return;
    }
    while (true) {
      Frame frame;
      bool have = false;
      const Status st = conn->reader.Next(&frame, &have);
      if (!st.ok()) {
        // Typed protocol violation (bad magic/version/type, oversized
        // length): count it and close cleanly — the stream can never
        // resynchronize, and nothing of the bad frame reached a request
        // struct.
        if (obs::MetricsEnabled()) {
          ServerMetrics::Get().protocol_errors->Increment();
        }
        LOG_WARN << "serve: protocol error, closing connection: "
                 << st.ToString();
        CloseConnection(io, conn);
        return;
      }
      if (!have) break;
      HandleFrame(io, conn, frame.type, frame.payload, frame.payload_len);
      if (!io->conns.Contains(conn->fd)) return;  // frame handler closed it
    }
  }
  // Slow-loris accounting: a partial frame left in the reader starts (or
  // keeps) the stall clock; completing every fed frame resets it.
  if (conn->reader.buffered() > 0) {
    if (conn->partial_since_ns == 0) conn->partial_since_ns = conn->last_rx_ns;
  } else {
    conn->partial_since_ns = 0;
  }
}

void ServeServer::SweepIdle(IoThread* io, uint64_t now_ns) {
  const uint64_t limit_ns = uint64_t{options_.idle_timeout_ms} * 1'000'000;
  std::vector<std::shared_ptr<Connection>> victims;
  for (const auto& [fd, conn] : io->conns) {
    (void)fd;
    const bool silent = now_ns - conn->last_rx_ns > limit_ns;
    const bool stalled_frame =
        conn->partial_since_ns != 0 &&
        now_ns - conn->partial_since_ns > limit_ns;
    if (silent || stalled_frame) victims.push_back(conn);
  }
  for (const auto& conn : victims) {
    if (obs::MetricsEnabled()) ServerMetrics::Get().idle_evicted->Increment();
    LOG_INFO << "serve: evicting idle/stalled connection fd=" << conn->fd;
    CloseConnection(io, conn);
  }
}

void ServeServer::HandleFrame(IoThread* io,
                              const std::shared_ptr<Connection>& conn,
                              MsgType type, const uint8_t* payload,
                              uint32_t len) {
  switch (type) {
    case MsgType::kQuery: {
      QueryRequest req;
      if (const Status st = DecodeQuery(payload, len, &req); !st.ok()) {
        if (obs::MetricsEnabled()) {
          ServerMetrics::Get().protocol_errors->Increment();
        }
        LOG_WARN << "serve: bad query frame: " << st.ToString();
        CloseConnection(io, conn);
        return;
      }
      if (obs::MetricsEnabled()) ServerMetrics::Get().requests->Increment();
      if (req.k == 0) {
        QueryResponse resp;
        resp.request_id = req.request_id;
        resp.status = WireStatus::kBadRequest;
        resp.model_version = registry_->version();
        std::string out;
        EncodeResponse(resp, &out);
        EnqueueWrite(conn, std::move(out));
        return;
      }
      // A corpus larger than kMaxResultsPerResponse could otherwise satisfy
      // a huge k with a response no conforming reader accepts.
      if (req.k > kMaxResultsPerResponse) req.k = kMaxResultsPerResponse;
      const uint64_t recv_ns = MonotonicNanos();
      const uint64_t request_id = req.request_id;
      std::shared_ptr<Connection> cb_conn = conn;
      ServeServer* self = this;
      const AdmitResult admit = batcher_->Submit(
          req.item, req.k,
          [self, cb_conn, request_id, recv_ns](WireStatus status,
                                               uint64_t model_version,
                                               std::vector<ScoredId> results) {
            QueryResponse resp;
            resp.request_id = request_id;
            resp.status = status;
            resp.model_version = model_version;
            resp.results = std::move(results);
            std::string out;
            EncodeResponse(resp, &out);
            if (obs::MetricsEnabled()) {
              ServerMetrics::Get().request_seconds->Observe(
                  static_cast<double>(MonotonicNanos() - recv_ns) * 1e-9);
            }
            self->EnqueueWrite(cb_conn, std::move(out));
          });
      if (admit != AdmitResult::kAccepted) {
        // Explicit backpressure: the client hears BUSY immediately instead
        // of the request silently vanishing or buffering without bound.
        QueryResponse resp;
        resp.request_id = request_id;
        resp.status = admit == AdmitResult::kBusy ? WireStatus::kBusy
                                                  : WireStatus::kShuttingDown;
        resp.model_version = registry_->version();
        std::string out;
        EncodeResponse(resp, &out);
        EnqueueWrite(conn, std::move(out));
      }
      return;
    }
    case MsgType::kHealth: {
      // Answered inline on the I/O thread — the probe must work even when
      // the batcher queue is jammed; that is exactly when you probe.
      uint64_t id = 0;
      if (!DecodeRequestId(payload, len, &id).ok()) {
        if (obs::MetricsEnabled()) {
          ServerMetrics::Get().protocol_errors->Increment();
        }
        CloseConnection(io, conn);
        return;
      }
      const SnapshotPtr snap = registry_->Acquire();
      HealthInfo info;
      info.request_id = id;
      info.ready = started_.load(std::memory_order_relaxed) &&
                   !stopping_.load(std::memory_order_relaxed) &&
                   snap != nullptr && snap->engine().num_items() > 0;
      if (snap != nullptr) {
        info.model_version = snap->version();
        info.num_items = snap->engine().num_items();
        info.dim = snap->engine().dim();
      }
      std::string out;
      EncodeHealthResp(info, &out);
      EnqueueWrite(conn, std::move(out));
      return;
    }
    case MsgType::kResponse:
    case MsgType::kHealthResp:
      // Clients must not send server->client message types.
      if (obs::MetricsEnabled()) {
        ServerMetrics::Get().protocol_errors->Increment();
      }
      CloseConnection(io, conn);
      return;
  }
}

void ServeServer::EnqueueWrite(const std::shared_ptr<Connection>& conn,
                               std::string bytes) {
  bool need_wake = false;
  {
    std::lock_guard<std::mutex> lock(conn->wmu);
    if (conn->closed) return;
    conn->outbuf += bytes;
    pending_tx_bytes_.fetch_add(static_cast<int64_t>(bytes.size()),
                                std::memory_order_relaxed);
    if (!conn->flush_queued) {
      conn->flush_queued = true;
      need_wake = true;
    }
  }
  if (need_wake) {
    IoThread* io = conn->owner;
    {
      std::lock_guard<std::mutex> lock(io->pmu);
      io->pending_flush.push_back(conn);
    }
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t w =
        ::write(io->event_fd, &one, sizeof(one));
  }
}

void ServeServer::FlushConnection(IoThread* io,
                                  const std::shared_ptr<Connection>& conn) {
  bool want_epollout = false;
  bool write_error = false;  // explicit: a non-empty outbuf alone is NOT an
                             // error (a callback may append concurrently)
  {
    std::lock_guard<std::mutex> lock(conn->wmu);
    while (!conn->outbuf.empty()) {
      const ssize_t w = ::send(conn->fd, conn->outbuf.data(),
                               conn->outbuf.size(), MSG_NOSIGNAL);
      if (w > 0) {
        pending_tx_bytes_.fetch_sub(w, std::memory_order_relaxed);
        if (obs::MetricsEnabled()) {
          ServerMetrics::Get().tx_bytes->Add(static_cast<uint64_t>(w));
        }
        conn->outbuf.erase(0, static_cast<size_t>(w));
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        want_epollout = true;
        break;
      }
      // Peer is gone; the close below releases the buffered bytes.
      write_error = true;
      break;
    }
  }
  if (write_error) {
    CloseConnection(io, conn);
    return;
  }
  if (want_epollout != conn->epollout_armed) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want_epollout ? EPOLLOUT : 0u);
    ev.data.u64 = static_cast<uint64_t>(conn->fd);
    ::epoll_ctl(io->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->epollout_armed = want_epollout;
  }
}

void ServeServer::CloseConnection(IoThread* io,
                                  const std::shared_ptr<Connection>& conn) {
  if (!io->conns.Erase(conn->fd)) return;  // already closed
  {
    std::lock_guard<std::mutex> lock(conn->wmu);
    conn->closed = true;
    pending_tx_bytes_.fetch_sub(static_cast<int64_t>(conn->outbuf.size()),
                                std::memory_order_relaxed);
    conn->outbuf.clear();
  }
  ::epoll_ctl(io->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  num_connections_.fetch_sub(1, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    ServerMetrics::Get().connections->Set(
        static_cast<double>(num_connections_.load(std::memory_order_relaxed)));
  }
}

void ServeServer::Shutdown() {
  if (!started_.load()) return;
  // Phase 1: stop taking new work. shutdown() (not close) makes every
  // racing accept fail while keeping the fd number allocated, so an I/O
  // thread mid-accept can never touch a recycled descriptor; the fd is
  // closed only after those threads have joined.
  stopping_.store(true);
  const int listen_fd = listen_fd_.load(std::memory_order_acquire);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    // Deregister so the level-triggered HUP doesn't spin the drain loops
    // (EPOLL_CTL_DEL from another thread is safe).
    for (auto& io : io_threads_) {
      ::epoll_ctl(io->epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
    }
  }
  // Phase 2: drain the batcher — every queued request runs through the scan
  // path and its response lands in a connection write buffer (the I/O
  // threads are still flushing).
  if (batcher_ != nullptr) batcher_->Drain();
  // Phase 3: wait (bounded) for the I/O threads to push the last response
  // bytes to the kernel, then tell them to exit.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pending_tx_bytes_.load(std::memory_order_relaxed) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  started_.store(false);
  for (auto& io : io_threads_) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t w =
        ::write(io->event_fd, &one, sizeof(one));
  }
  for (auto& io : io_threads_) {
    if (io->thread.joinable()) io->thread.join();
    if (io->epoll_fd >= 0) ::close(io->epoll_fd);
    if (io->event_fd >= 0) ::close(io->event_fd);
  }
  io_threads_.clear();
  if (listen_fd >= 0) {
    listen_fd_.store(-1, std::memory_order_release);
    ::close(listen_fd);
  }
  batcher_.reset();
  if (obs::MetricsEnabled()) {
    ServerMetrics::Get().connections->Set(0.0);
  }
}

}  // namespace sisg::serve
