#include "serve/reloader.h"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace sisg::serve {

namespace {

struct ReloadMetrics {
  obs::Counter* ok;
  obs::Counter* failed;
  obs::Histogram* seconds;

  static const ReloadMetrics& Get() {
    static ReloadMetrics m{
        obs::MetricsRegistry::Global().counter("serve.reload_ok"),
        obs::MetricsRegistry::Global().counter("serve.reload_failed"),
        obs::MetricsRegistry::Global().histogram("serve.reload_seconds"),
    };
    return m;
  }
};

/// Canary queries run against every candidate engine, and their depth.
constexpr uint32_t kCanaryQueries = 8;
constexpr uint32_t kCanaryK = 10;

}  // namespace

Status ValidateServingEngine(const MatchingEngine& engine) {
  if (engine.num_items() == 0 || engine.dim() == 0) {
    return Status::FailedPrecondition(
        "serving validation: engine has no items");
  }

  // Probe evenly spaced starting points, advancing each to the next trained
  // item (bounded walk — a sparse id space must not turn validation into a
  // full scan per canary).
  constexpr uint32_t kMaxProbeWalk = 1024;
  const uint32_t n = engine.num_items();
  uint32_t ran = 0;
  for (uint32_t c = 0; c < kCanaryQueries; ++c) {
    const uint32_t start =
        static_cast<uint32_t>((static_cast<uint64_t>(c) * n) / kCanaryQueries);
    uint32_t item = start;
    uint32_t walked = 0;
    while (walked < kMaxProbeWalk && walked < n && !engine.HasItem(item)) {
      item = (item + 1) % n;
      ++walked;
    }
    if (!engine.HasItem(item)) continue;  // dead id range; try next canary
    const std::vector<ScoredId> top = engine.Query(item, kCanaryK);
    if (top.empty()) {
      return Status::FailedPrecondition(
          "serving validation: canary item " + std::to_string(item) +
          " returned an empty top-k");
    }
    for (const ScoredId& r : top) {
      if (!std::isfinite(r.score)) {
        return Status::FailedPrecondition(
            "serving validation: canary item " + std::to_string(item) +
            " produced non-finite score for id " + std::to_string(r.id));
      }
      if (r.id >= n) {
        return Status::FailedPrecondition(
            "serving validation: canary item " + std::to_string(item) +
            " produced out-of-range id " + std::to_string(r.id));
      }
      if (r.id == item) {
        return Status::FailedPrecondition(
            "serving validation: canary item " + std::to_string(item) +
            " returned itself");
      }
    }
    ++ran;
  }
  if (ran == 0) {
    return Status::FailedPrecondition(
        "serving validation: no trained item reachable from any canary "
        "probe — model is empty or liveness map is corrupt");
  }
  return Status::OK();
}

Status PrepareServingEngine(MatchingEngine* engine, const std::string& quant,
                            const std::string& qarena_path, bool use_mmap) {
  if (quant == "int8") {
    SISG_RETURN_IF_ERROR(qarena_path.empty()
                             ? engine->EnableInt8()
                             : engine->EnableInt8FromFile(qarena_path, use_mmap));
  } else if (quant == "pq") {
    SISG_RETURN_IF_ERROR(engine->EnableIvfPq(IvfOptions{}, PqOptions{}));
  } else if (quant != "fp32") {
    return Status::InvalidArgument("unknown quant '" + quant +
                                   "' (want fp32|int8|pq)");
  }
  return ValidateServingEngine(*engine);
}

StatusOr<MatchingEngine> LoadServingVersion(const std::string& prefix,
                                            const std::string& quant,
                                            bool use_mmap) {
  const std::string arena_path = prefix + ".arena";
  if (::access(arena_path.c_str(), F_OK) != 0) {
    return Status::NotFound("serving loader: " + arena_path +
                            " does not exist");
  }
  MatchingEngine engine;
  SISG_RETURN_IF_ERROR(engine.LoadArena(arena_path, use_mmap));
  SISG_RETURN_IF_ERROR(
      PrepareServingEngine(&engine, quant, prefix + ".qarena", use_mmap));
  return engine;
}

ModelReloader::ModelReloader(ModelRegistry* registry,
                             const ReloaderOptions& options)
    : registry_(registry), options_(options) {}

ModelReloader::~ModelReloader() { Stop(); }

Status ModelReloader::Start() {
  if (options_.watch_dir.empty()) {
    return Status::InvalidArgument("reloader: empty watch_dir");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::OK();
  stop_ = false;
  started_ = true;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_interval_ms),
                   [this] { return stop_; });
      if (stop_) break;
      lock.unlock();
      PollOnce();  // failures are counted + logged inside
      lock.lock();
    }
  });
  return Status::OK();
}

void ModelReloader::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
    started_ = false;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::string ModelReloader::ReadLatestToken() const {
  std::FILE* f = std::fopen((options_.watch_dir + "/LATEST").c_str(), "r");
  if (f == nullptr) return "";
  char buf[256];
  const int got = std::fscanf(f, "%255s", buf);
  std::fclose(f);
  return got == 1 ? std::string(buf) : "";
}

Status ModelReloader::PollOnce() {
  const std::string token = ReadLatestToken();
  // No pointer (yet) is not a failure — the publisher may not have shipped
  // anything; keep serving whatever is live.
  if (token.empty() || token == last_attempted_token_) return Status::OK();
  last_attempted_token_ = token;

  const uint64_t t0 = MonotonicNanos();
  const std::string prefix = options_.watch_dir + "/" + token;
  StatusOr<MatchingEngine> loaded =
      LoadServingVersion(prefix, options_.quant, options_.use_mmap);
  if (loaded.ok()) {
    registry_->PublishOwned(
        std::make_unique<MatchingEngine>(std::move(loaded).value()),
        prefix + ".arena");
    ++ok_;
    if (obs::MetricsEnabled()) {
      ReloadMetrics::Get().ok->Increment();
      ReloadMetrics::Get().seconds->Observe(
          static_cast<double>(MonotonicNanos() - t0) * 1e-9);
    }
  } else {
    ++failed_;
    if (obs::MetricsEnabled()) ReloadMetrics::Get().failed->Increment();
    LOG_WARN << "reloader: rejected version '" << token
             << "' — keeping current model v" << registry_->version() << " ("
             << loaded.status().ToString() << ")";
  }
  return loaded.status();
}

}  // namespace sisg::serve
