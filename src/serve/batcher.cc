#include "serve/batcher.h"

#include <algorithm>
#include <chrono>

#include "common/timer.h"
#include "obs/metrics.h"

namespace sisg::serve {

namespace {

struct BatcherMetrics {
  obs::Histogram* batch_size;
  obs::Histogram* queue_wait;
  obs::Histogram* scan_seconds;
  obs::Gauge* queue_depth;
  obs::Counter* dropped;
  obs::Counter* deadline_exceeded;
  obs::Counter* batches;

  static const BatcherMetrics& Get() {
    static const BatcherMetrics m = {
        obs::MetricsRegistry::Global().histogram("serve.batch_size"),
        obs::MetricsRegistry::Global().histogram("serve.queue_wait_seconds"),
        obs::MetricsRegistry::Global().histogram("serve.batch_scan_seconds"),
        obs::MetricsRegistry::Global().gauge("serve.queue_depth"),
        obs::MetricsRegistry::Global().counter("serve.dropped"),
        obs::MetricsRegistry::Global().counter("serve.deadline_exceeded"),
        obs::MetricsRegistry::Global().counter("serve.batches"),
    };
    return m;
  }
};

/// max_batch == 0 (reachable through an unvalidated flag) would make the
/// ring admit nothing: the ring thread spins and Drain never finishes.
/// Normalize once at construction so every consumer can trust it.
BatchOptions Sanitize(BatchOptions o) {
  o.max_batch = std::max(1u, o.max_batch);
  return o;
}

}  // namespace

QueryBatcher::QueryBatcher(const ModelRegistry* registry,
                           const BatchOptions& options)
    : registry_(registry), options_(Sanitize(options)) {}

QueryBatcher::~QueryBatcher() { Drain(); }

void QueryBatcher::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || draining_) return;
  started_ = true;
  const uint32_t n = std::max(1u, options_.ring_threads);
  ring_threads_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ring_threads_.emplace_back([this] { RunRing(); });
  }
}

AdmitResult QueryBatcher::Submit(uint32_t item, uint32_t k, Callback cb) {
  const uint64_t now_ns = MonotonicNanos();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return AdmitResult::kShuttingDown;
    if (queue_.size() >= options_.queue_capacity) {
      if (obs::MetricsEnabled()) BatcherMetrics::Get().dropped->Increment();
      return AdmitResult::kBusy;
    }
    queue_.push_back({item, k, std::move(cb), now_ns});
    queued_.store(queue_.size(), std::memory_order_relaxed);
    if (obs::MetricsEnabled()) {
      BatcherMetrics::Get().queue_depth->Set(
          static_cast<double>(queue_.size()));
    }
  }
  cv_.notify_one();
  return AdmitResult::kAccepted;
}

size_t QueryBatcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

struct QueryBatcher::Rider {
  Pending req;
  MatchingEngine::ChunkQuery query;
  uint64_t join_ns = 0;
  uint64_t rider_chunks = 0;  // sum over its chunks of riders scanning them
};

void QueryBatcher::TakeLocked(size_t max, std::vector<Pending>* out) {
  const size_t take = std::min(queue_.size(), max);
  for (size_t i = 0; i < take; ++i) {
    out->push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  queued_.store(queue_.size(), std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    BatcherMetrics::Get().queue_depth->Set(static_cast<double>(queue_.size()));
  }
}

void QueryBatcher::RunRing() {
  const uint64_t deadline_ns = uint64_t{options_.deadline_us} * 1000;
  SnapshotPtr snap;  // the ring's version; null while the ring is idle
  uint32_t pos = 0;  // next chunk to scan
  std::vector<std::unique_ptr<Rider>> riders;
  std::vector<MatchingEngine::ChunkQuery*> step;
  std::vector<Pending> joining;
  for (;;) {
    // Admission, at a chunk boundary.
    joining.clear();
    if (riders.empty()) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;  // draining and nothing left
      // An idle ring may hold its first lap for a fuller one: from the
      // oldest queued request's arrival, wait for max_batch requests, but
      // never longer than max_wait_us.
      if (options_.max_wait_us > 0 && !draining_) {
        const uint64_t budget_ns = uint64_t{options_.max_wait_us} * 1000;
        const uint64_t waited_ns = MonotonicNanos() - queue_.front().enqueue_ns;
        if (waited_ns < budget_ns) {
          cv_.wait_for(lock, std::chrono::nanoseconds(budget_ns - waited_ns),
                       [this] {
                         return queue_.size() >= options_.max_batch ||
                                draining_;
                       });
        }
      }
      // The ring starts on the live version.
      snap = registry_ != nullptr ? registry_->Acquire() : nullptr;
      pos = 0;
      if (obs::MetricsEnabled()) BatcherMetrics::Get().batches->Increment();
      TakeLocked(options_.max_batch, &joining);
    } else if (riders.size() < options_.max_batch &&
               queued_.load(std::memory_order_relaxed) > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      // Join only while the live snapshot is still the ring's: after a
      // swap, arrivals wait for the ring to empty and restart.
      if (registry_->Acquire() == snap) {
        TakeLocked(options_.max_batch - riders.size(), &joining);
      }
    }

    const uint64_t version = snap ? snap->version() : 0;
    const bool metrics = obs::MetricsEnabled();
    const uint64_t now = MonotonicNanos();
    std::vector<Pending> whole;  // answered at once: the engine is not chunked
    for (Pending& p : joining) {
      // A ring with no published model (rare: startup races) or a request
      // that overstayed its deadline gets a typed reply, no scan time.
      if (snap == nullptr) {
        p.cb(WireStatus::kShuttingDown, 0, {});
        continue;
      }
      if (deadline_ns > 0 && now - p.enqueue_ns > deadline_ns) {
        if (metrics) BatcherMetrics::Get().deadline_exceeded->Increment();
        p.cb(WireStatus::kDeadlineExceeded, version, {});
        continue;
      }
      if (metrics) {
        BatcherMetrics::Get().queue_wait->Observe(
            static_cast<double>(now - p.enqueue_ns) * 1e-9);
      }
      const MatchingEngine& engine = snap->engine();
      if (!engine.chunked()) {
        whole.push_back(std::move(p));
        continue;
      }
      auto rider = std::make_unique<Rider>();
      if (!engine.BeginQuery(p.item, p.k, pos, &rider->query)) {
        // Nothing to scan (unknown item, k == 0): the answer is empty.
        if (metrics) BatcherMetrics::Get().scan_seconds->Observe(0.0);
        p.cb(WireStatus::kOk, version, {});
        continue;
      }
      rider->req = std::move(p);
      rider->join_ns = now;
      riders.push_back(std::move(rider));
    }
    if (!whole.empty()) {
      const size_t n = whole.size();
      std::vector<uint32_t> items(n), ks(n);
      for (size_t i = 0; i < n; ++i) {
        items[i] = whole[i].item;
        ks[i] = whole[i].k;
      }
      std::vector<std::vector<ScoredId>> results =
          snap->engine().QueryBatchCoalesced(items.data(), ks.data(), n);
      const double scan_s = static_cast<double>(MonotonicNanos() - now) * 1e-9;
      for (size_t i = 0; i < n; ++i) {
        if (metrics) {
          BatcherMetrics::Get().batch_size->Observe(static_cast<double>(n));
          BatcherMetrics::Get().scan_seconds->Observe(scan_s);
        }
        whole[i].cb(WireStatus::kOk, version, std::move(results[i]));
      }
    }
    if (riders.empty()) {
      snap.reset();  // idle: let a replaced version retire
      continue;
    }

    // One step: the next chunk for every rider.
    const MatchingEngine& engine = snap->engine();
    step.clear();
    for (const auto& r : riders) step.push_back(&r->query);
    engine.ScanChunks(pos, 1, step.data(), step.size());
    pos = (pos + 1) % engine.num_chunks();

    // Answer every rider whose lap just ended.
    const size_t riding = riders.size();
    size_t kept = 0;
    for (size_t i = 0; i < riding; ++i) {
      std::unique_ptr<Rider>& r = riders[i];
      r->rider_chunks += riding;
      if (r->query.start_chunk() != pos) {
        riders[kept++] = std::move(r);
        continue;
      }
      std::vector<ScoredId> result = engine.FinishQuery(&r->query);
      if (metrics) {
        const BatcherMetrics& m = BatcherMetrics::Get();
        m.batch_size->Observe(static_cast<double>(r->rider_chunks) /
                              static_cast<double>(engine.num_chunks()));
        m.scan_seconds->Observe(
            static_cast<double>(MonotonicNanos() - r->join_ns) * 1e-9);
      }
      r->req.cb(WireStatus::kOk, version, std::move(result));
    }
    riders.resize(kept);
  }
}

void QueryBatcher::Drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    to_join.swap(ring_threads_);
    started_ = false;
  }
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
  // Never started (or already joined): run the ring inline until the queue
  // is empty, so the exactly-once callback contract holds even for a
  // Start()-less batcher being destroyed.
  RunRing();
  if (obs::MetricsEnabled()) BatcherMetrics::Get().queue_depth->Set(0.0);
}

}  // namespace sisg::serve
