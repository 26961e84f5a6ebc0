#include "serve/model_registry.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace sisg::serve {

namespace {

void PublishVersionGauge(uint64_t version) {
  if (!obs::MetricsEnabled()) return;
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().gauge("serve.model_version");
  g->Set(static_cast<double>(version));
}

}  // namespace

uint64_t ModelRegistry::PublishOwned(
    std::unique_ptr<const MatchingEngine> engine, std::string source) {
  std::shared_ptr<ServingSnapshot> snap(
      new ServingSnapshot(std::move(engine), std::move(source)));
  snap->version_ = next_version_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t version = snap->version_;
  LOG_INFO << "model_registry: publishing v" << version << " ("
           << snap->engine().num_items() << " items, dim "
           << snap->engine().dim() << ", from " << snap->source() << ")";
  // The old snapshot's refcount drop (and possible destruction) happens
  // outside the lock, so a publish never frees a model while holding mu_.
  SnapshotPtr retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    retired = std::move(current_);
    current_ = std::move(snap);
  }
  retired.reset();
  PublishVersionGauge(version);
  return version;
}

}  // namespace sisg::serve
