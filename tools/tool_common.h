#ifndef SISG_TOOLS_TOOL_COMMON_H_
#define SISG_TOOLS_TOOL_COMMON_H_

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/sisg_config.h"
#include "datagen/dataset.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sampler.h"

namespace sisg::tools {

/// Shared --metrics_out / --metrics_interval handling. When either flag is
/// present, enables the metrics registry and (for a positive interval)
/// starts the background sampler, which logs periodic progress lines and
/// keeps the JSON artifact fresh. Finish() stops the sampler, writes the
/// final artifact, and prints the end-of-run summary table.
class ToolMetrics {
 public:
  static ToolMetrics FromFlags(const FlagParser& flags) {
    ToolMetrics m;
    m.json_path_ = flags.GetString("metrics_out", "");
    const double interval =
        static_cast<double>(flags.GetInt64("metrics_interval", 0));
    if (m.json_path_.empty() && interval <= 0.0) return m;
    obs::EnableMetrics(true);
    m.active_ = true;
    if (interval > 0.0) {
      obs::MetricsSampler::Options sopts;
      sopts.interval_seconds = interval;
      sopts.json_path = m.json_path_;
      m.sampler_ = std::make_unique<obs::MetricsSampler>(sopts);
      m.sampler_->Start();
    }
    return m;
  }

  /// Arms the SIGINT/SIGTERM watcher so an interrupted run still publishes
  /// its --metrics_out artifact before dying from the signal. No-op when
  /// metrics are off or no output path was requested.
  void InstallSignalFlush() {
    if (active_ && !json_path_.empty()) obs::FlushMetricsOnSignal(json_path_);
  }

  /// Returns 0, or 1 when writing the artifact failed (the tool's exit
  /// code should reflect a missing requested artifact).
  int Finish() {
    if (!active_) return 0;
    if (sampler_ != nullptr) sampler_->Stop();  // runs one final tick
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    int rc = 0;
    if (!json_path_.empty()) {
      if (auto st = obs::WriteMetricsFile(snap, json_path_); !st.ok()) {
        std::cerr << st.ToString() << "\n";
        rc = 1;
      } else {
        std::cout << "wrote metrics to " << json_path_ << "\n";
      }
    }
    obs::PrintSummary(snap, std::cout);
    active_ = false;
    return rc;
  }

 private:
  bool active_ = false;
  std::string json_path_;
  std::unique_ptr<obs::MetricsSampler> sampler_;
};

/// The world-spec flags shared by all tools. The catalog and user universe
/// are deterministic functions of these, so sisg_datagen / sisg_train /
/// sisg_query agree on the world as long as the flags match.
inline const std::vector<std::string> kWorldFlags = {
    "items", "leaves", "shops", "brands", "cities", "user_types", "world_seed"};

inline DatasetSpec SpecFromFlags(const FlagParser& flags) {
  DatasetSpec spec;
  spec.catalog.num_items =
      static_cast<uint32_t>(flags.GetInt64("items", 8000));
  spec.catalog.num_leaf_categories =
      static_cast<uint32_t>(flags.GetInt64("leaves", 32));
  spec.catalog.num_shops = static_cast<uint32_t>(flags.GetInt64("shops", 600));
  spec.catalog.num_brands =
      static_cast<uint32_t>(flags.GetInt64("brands", 300));
  spec.catalog.num_cities = static_cast<uint32_t>(flags.GetInt64("cities", 32));
  spec.catalog.seed =
      static_cast<uint64_t>(flags.GetInt64("world_seed", 42));
  spec.users.num_user_types =
      static_cast<uint32_t>(flags.GetInt64("user_types", 500));
  return spec;
}

/// Appends the world flags to a tool's own known-flags list.
inline std::vector<std::string> WithWorldFlags(std::vector<std::string> own) {
  own.insert(own.end(), kWorldFlags.begin(), kWorldFlags.end());
  return own;
}

/// Parses a --variant name (the Table III variants). An unknown name is
/// InvalidArgument; tools exit 2 on it rather than guess a variant.
inline StatusOr<SisgVariant> VariantFromName(const std::string& name) {
  if (name == "sgns") return SisgVariant::kSgns;
  if (name == "sisg-f") return SisgVariant::kSisgF;
  if (name == "sisg-u") return SisgVariant::kSisgU;
  if (name == "sisg-f-u") return SisgVariant::kSisgFU;
  if (name == "sisg-f-u-d") return SisgVariant::kSisgFUD;
  return Status::InvalidArgument("unknown variant: " + name);
}

}  // namespace sisg::tools

#endif  // SISG_TOOLS_TOOL_COMMON_H_
