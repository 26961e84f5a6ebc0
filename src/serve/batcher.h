#ifndef SISG_SERVE_BATCHER_H_
#define SISG_SERVE_BATCHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/top_k.h"
#include "serve/model_registry.h"
#include "serve/wire.h"

namespace sisg::serve {

struct BatchOptions {
  /// Requests riding one scan ring at once: queued requests join at a
  /// chunk boundary only while fewer than this many ride.
  uint32_t max_batch = 32;
  /// When the ring is idle, how long after the oldest queued request's
  /// arrival it waits for max_batch requests before starting a lap. 0 (the
  /// default) starts at once. A running ring admits at its next chunk
  /// boundary whatever this says.
  uint32_t max_wait_us = 0;
  /// Admission-control bound on queued requests that have not joined a
  /// ring. A full queue rejects (typed BUSY), never buffers unboundedly.
  uint32_t queue_capacity = 1024;
  /// Ring threads (0 counts as 1), each running a ring of its own over the
  /// block that admits from the shared queue. Rings scan in parallel with
  /// no fork/join per chunk; each streams the block itself.
  uint32_t ring_threads = 1;
  /// Per-request serving deadline, measured from Submit to joining a ring.
  /// A request that sat queued longer than this is shed with a typed
  /// DEADLINE_EXCEEDED reply instead of burning scan time on an answer the
  /// client has already given up on. 0 = no deadline.
  uint32_t deadline_us = 0;
};

/// Outcome of QueryBatcher::Submit — the admission-control decision.
enum class AdmitResult {
  kAccepted,
  kBusy,          // queue full; caller replies BUSY
  kShuttingDown,  // Drain() has begun; caller replies SHUTTING_DOWN
};

/// Shares scans among concurrent single-item requests through a scan ring
/// (cooperative scans: Zukowski et al., VLDB 2007). Producers (network
/// threads) call Submit with a completion callback. Each ring thread
/// loops over the engine's block as a ring of chunks
/// (MatchingEngine::ScanChunks): at every chunk boundary, queued requests
/// join the running lap (up to max_batch riders), every rider's query is
/// scored against the chunk while it is cache-hot, and a rider is answered
/// (MatchingEngine::FinishQuery) as soon as its own lap ends, one chunk
/// before where it joined. The answers are Query()'s bit for bit wherever a
/// request joins. Callbacks run on a ring thread and must not block
/// for long (the server's append-to-write-buffer-and-wake is fine).
///
/// The engine comes from a ModelRegistry. A ring Acquire()s the live
/// snapshot when it starts from idle and holds it until its last rider is
/// answered, so every answer comes from one coherent model version
/// (reported through the callback). Requests join a running ring only while
/// the live snapshot is still the ring's; after a hot swap, arrivals wait at
/// most one lap until the ring empties and restarts on the new version, and
/// the old snapshot is released then. An engine that is not chunked (IVF-PQ)
/// answers the requests it admits at once, as one QueryBatchCoalesced call.
///
/// Obs wiring, one meaning each (per answered request unless noted):
/// serve.queue_wait_seconds (Submit -> join) and serve.batch_scan_seconds
/// (join -> answer), which sum to the request's time in the batcher;
/// serve.batch_size (the mean number of requests per scan step over the
/// request's lap, or the size of the whole batch that answered it);
/// serve.batches (counter: laps started from an idle ring);
/// serve.queue_depth (gauge); serve.dropped (admission rejections);
/// serve.deadline_exceeded (queued past deadline_us).
class QueryBatcher {
 public:
  /// status is kOk with the scan results, or a typed shed reason
  /// (kDeadlineExceeded / kShuttingDown) with empty results.
  /// model_version is the snapshot that answered (0 when none exists).
  using Callback = std::function<void(
      WireStatus status, uint64_t model_version, std::vector<ScoredId>)>;

  QueryBatcher(const ModelRegistry* registry, const BatchOptions& options);
  ~QueryBatcher();

  QueryBatcher(const QueryBatcher&) = delete;
  QueryBatcher& operator=(const QueryBatcher&) = delete;

  /// Spawns the ring threads. Submit before Start() queues (up to
  /// capacity) without dispatching — tests use this to fill the queue
  /// deterministically.
  void Start();

  /// Admission control + enqueue. On kAccepted the callback will be invoked
  /// exactly once (possibly after Drain flushes the queue); on rejection it
  /// is never invoked and the caller owns the error reply.
  AdmitResult Submit(uint32_t item, uint32_t k, Callback cb);

  /// Graceful drain: stop admitting, flush every queued request through the
  /// scan path, join the ring threads. Idempotent.
  void Drain();

  /// Queued requests that have not joined a ring yet (tests/gauges).
  size_t queue_depth() const;

  const BatchOptions& options() const { return options_; }

 private:
  struct Pending {
    uint32_t item;
    uint32_t k;
    Callback cb;
    uint64_t enqueue_ns;
  };
  struct Rider;

  /// The dispatch loop: one ring over the live engine until draining and
  /// nothing is queued or riding. Every ring thread runs it; a Drain of a
  /// never-started batcher runs it inline.
  void RunRing();
  /// Moves up to `max` queued requests to `out`. Caller holds mu_.
  void TakeLocked(size_t max, std::vector<Pending>* out);

  const ModelRegistry* registry_;
  const BatchOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  /// queue_.size(), readable without mu_: a running ring checks it at every
  /// chunk boundary and takes the lock only when something is queued.
  std::atomic<size_t> queued_{0};
  bool draining_ = false;
  bool started_ = false;
  std::vector<std::thread> ring_threads_;
};

}  // namespace sisg::serve

#endif  // SISG_SERVE_BATCHER_H_
