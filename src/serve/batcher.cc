#include "serve/batcher.h"

#include <algorithm>
#include <chrono>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

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

/// max_batch == 0 (reachable through an unvalidated flag) would make
/// NextBatch always take zero items: the dispatcher spins and Drain never
/// finishes. Normalize once at construction so every consumer can trust it.
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
  const uint32_t n = std::max(1u, options_.dispatch_threads);
  dispatchers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    dispatchers_.emplace_back([this] { DispatchLoop(); });
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

std::vector<QueryBatcher::Pending> QueryBatcher::NextBatch() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
  if (queue_.empty()) return {};  // draining and nothing left

  // Adaptive flush: from the first queued request's arrival, wait for the
  // batch to fill up to max_batch, but never longer than max_wait_us — low
  // offered load must not pay a full batching window of latency for a batch
  // that will never fill.
  if (options_.max_wait_us > 0 && !draining_) {
    // The window counts from the oldest queued request's arrival, not from
    // this wake: a dispatcher that was busy scanning the previous batch has
    // already consumed part (or all) of the oldest request's wait budget.
    const uint64_t budget_ns = uint64_t{options_.max_wait_us} * 1000;
    const uint64_t waited_ns = MonotonicNanos() - queue_.front().enqueue_ns;
    if (waited_ns < budget_ns) {
      cv_.wait_for(lock, std::chrono::nanoseconds(budget_ns - waited_ns),
                   [this] {
                     return queue_.size() >= options_.max_batch || draining_;
                   });
    }
  }

  const size_t take = std::min<size_t>(queue_.size(), options_.max_batch);
  std::vector<Pending> batch;
  batch.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  if (obs::MetricsEnabled()) {
    BatcherMetrics::Get().queue_depth->Set(static_cast<double>(queue_.size()));
  }
  return batch;
}

void QueryBatcher::RunBatch(std::vector<Pending> batch, ThreadPool* pool) {
  if (batch.empty()) return;
  // One snapshot per micro-batch: every request below is answered by this
  // exact model version, and the version cannot be retired under the scan —
  // the SnapshotPtr pins it until this function returns.
  const SnapshotPtr snap = registry_ ? registry_->Acquire() : nullptr;
  const uint64_t version = snap ? snap->version() : 0;
  const bool metrics = obs::MetricsEnabled();
  const uint64_t now = MonotonicNanos();

  // Shed requests that overstayed their deadline while queued (and, rare
  // but possible during startup races, a batch with no published model):
  // typed replies, no scan time spent.
  std::vector<Pending> live;
  live.reserve(batch.size());
  const uint64_t deadline_ns = uint64_t{options_.deadline_us} * 1000;
  for (Pending& p : batch) {
    if (snap == nullptr) {
      p.cb(WireStatus::kShuttingDown, 0, {});
    } else if (deadline_ns > 0 && now - p.enqueue_ns > deadline_ns) {
      if (metrics) BatcherMetrics::Get().deadline_exceeded->Increment();
      p.cb(WireStatus::kDeadlineExceeded, version, {});
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  const size_t n = live.size();
  std::vector<uint32_t> items(n), ks(n);
  for (size_t i = 0; i < n; ++i) {
    items[i] = live[i].item;
    ks[i] = live[i].k;
  }
  if (metrics) {
    const BatcherMetrics& m = BatcherMetrics::Get();
    m.batches->Increment();
    m.batch_size->Observe(static_cast<double>(n));
    for (const Pending& p : live) {
      m.queue_wait->Observe(static_cast<double>(now - p.enqueue_ns) * 1e-9);
    }
  }
  std::vector<std::vector<ScoredId>> results;
  {
    obs::TraceSpan span(metrics ? BatcherMetrics::Get().scan_seconds : nullptr);
    results =
        snap->engine().QueryBatchCoalesced(items.data(), ks.data(), n, pool);
  }
  for (size_t i = 0; i < n; ++i) {
    live[i].cb(WireStatus::kOk, version, std::move(results[i]));
  }
}

void QueryBatcher::DispatchLoop() {
  // Each dispatcher owns its scan pool, so concurrent dispatchers never
  // serialize on a shared Wait().
  std::unique_ptr<ThreadPool> pool;
  if (options_.scan_threads > 1) {
    pool = std::make_unique<ThreadPool>(options_.scan_threads);
  }
  for (;;) {
    std::vector<Pending> batch = NextBatch();
    if (batch.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_ && queue_.empty()) return;
      continue;
    }
    RunBatch(std::move(batch), pool.get());
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
    to_join.swap(dispatchers_);
    started_ = false;
  }
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
  // Never started (or already joined): flush whatever is queued inline so
  // the exactly-once callback contract holds even for a Start()-less
  // batcher being destroyed.
  for (;;) {
    std::vector<Pending> rest;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const size_t take = std::min<size_t>(queue_.size(), options_.max_batch);
      for (size_t i = 0; i < take; ++i) {
        rest.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (rest.empty()) break;
    RunBatch(std::move(rest), nullptr);
  }
  if (obs::MetricsEnabled()) BatcherMetrics::Get().queue_depth->Set(0.0);
}

}  // namespace sisg::serve
