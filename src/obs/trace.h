#ifndef SISG_OBS_TRACE_H_
#define SISG_OBS_TRACE_H_

#include "common/timer.h"
#include "obs/metrics.h"

namespace sisg::obs {

/// RAII phase timer: records the enclosing scope's duration (seconds) into
/// a pre-registered latency histogram at destruction (callers look the
/// histogram up once, so a span never touches the registry map). When
/// metrics are disabled or `hist` is null the constructor is one relaxed
/// atomic load and the destructor a null check — cheap enough to leave in
/// non-hot paths unconditionally.
class TraceSpan {
 public:
  explicit TraceSpan(Histogram* hist) {
    if (MetricsEnabled() && hist != nullptr) {
      hist_ = hist;
      start_ns_ = MonotonicNanos();
    }
  }

  ~TraceSpan() {
    if (hist_ != nullptr) {
      hist_->Observe(static_cast<double>(MonotonicNanos() - start_ns_) * 1e-9);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Histogram* hist_ = nullptr;
  uint64_t start_ns_ = 0;
};

}  // namespace sisg::obs

#endif  // SISG_OBS_TRACE_H_
