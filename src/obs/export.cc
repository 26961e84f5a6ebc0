#include "obs/export.h"

#include <semaphore.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <mutex>
#include <ostream>
#include <thread>

#include "common/io_util.h"
#include "obs/table_printer.h"

namespace sisg::obs {

namespace {

std::string FormatDouble(double v) {
  // JSON has no inf/nan literals; exporters only see finite metrics in
  // practice (histogram quantiles report bucket floors, never infinity).
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string SanitizePrometheusName(const std::string& name) {
  std::string out = "sisg_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

constexpr double kQuantiles[] = {0.5, 0.9, 0.95, 0.99};
constexpr const char* kQuantileKeys[] = {"p50", "p90", "p95", "p99"};
// Label strings kept literal: FormatDouble would print 0.99 as
// 0.98999999999999999 and break scrapers matching quantile="0.99".
constexpr const char* kQuantileLabels[] = {"0.5", "0.9", "0.95", "0.99"};

}  // namespace

std::string ToJson(const MetricsSnapshot& snap) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + EscapeJson(name) + "\": " + std::to_string(v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + EscapeJson(name) + "\": " + FormatDouble(v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + EscapeJson(name) + "\": {";
    out += "\"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + FormatDouble(h.sum);
    out += ", \"mean\": " + FormatDouble(h.Mean());
    for (size_t i = 0; i < std::size(kQuantiles); ++i) {
      out += std::string(", \"") + kQuantileKeys[i] +
             "\": " + FormatDouble(h.Quantile(kQuantiles[i]));
    }
    out += ", \"max\": " + FormatDouble(h.Quantile(1.0));
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

Status WriteJsonFile(const MetricsSnapshot& snap, const std::string& path) {
  return WriteFileAtomic(path, ToJson(snap));
}

Status WriteMetricsFile(const MetricsSnapshot& snap, const std::string& path) {
  const bool prom =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  if (!prom) return WriteJsonFile(snap, path);
  return WriteFileAtomic(path, ToPrometheusText(snap));
}

std::string ToPrometheusText(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    const std::string p = SanitizePrometheusName(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string p = SanitizePrometheusName(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + FormatDouble(v) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string p = SanitizePrometheusName(name);
    out += "# TYPE " + p + " summary\n";
    for (size_t i = 0; i < std::size(kQuantiles); ++i) {
      out += p + "{quantile=\"" + kQuantileLabels[i] + "\"} " +
             FormatDouble(h.Quantile(kQuantiles[i])) + "\n";
    }
    out += p + "_sum " + FormatDouble(h.sum) + "\n";
    out += p + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

namespace {

// Signal-flush plumbing. The handler must stay async-signal-safe, so all it
// does is record which signal fired and sem_post; the watcher thread (plain
// thread context) snapshots the registry, writes the file, then re-raises
// the signal through its default disposition so callers still observe
// "killed by SIGINT/SIGTERM".
struct SignalFlushState {
  sem_t sem;
  std::atomic<int> signo{0};
  std::mutex path_mu;
  std::string path;
};

SignalFlushState* g_signal_flush = nullptr;

void SignalFlushHandler(int signo) {
  if (g_signal_flush == nullptr) return;
  g_signal_flush->signo.store(signo, std::memory_order_relaxed);
  sem_post(&g_signal_flush->sem);
}

Status SignalFlushWrite() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(g_signal_flush->path_mu);
    path = g_signal_flush->path;
  }
  if (path.empty()) return Status::OK();
  return WriteMetricsFile(MetricsRegistry::Global().Snapshot(), path);
}

}  // namespace

void FlushMetricsOnSignal(const std::string& path) {
  static std::once_flag once;
  std::call_once(once, [] {
    g_signal_flush = new SignalFlushState();
    sem_init(&g_signal_flush->sem, 0, 0);
    std::thread([] {
      while (sem_wait(&g_signal_flush->sem) != 0 && errno == EINTR) {
      }
      const Status s = SignalFlushWrite();
      if (!s.ok()) {
        // Too late to report through normal channels; best-effort stderr.
        std::fprintf(stderr, "metrics signal flush failed: %s\n",
                     s.ToString().c_str());
      }
      const int signo = g_signal_flush->signo.load(std::memory_order_relaxed);
      std::signal(signo, SIG_DFL);
      raise(signo);
    }).detach();
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &SignalFlushHandler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
  });
  std::lock_guard<std::mutex> lock(g_signal_flush->path_mu);
  g_signal_flush->path = path;
}

namespace internal {

Status SignalFlushNowForTest() {
  if (g_signal_flush == nullptr) {
    return Status::FailedPrecondition("FlushMetricsOnSignal not installed");
  }
  return SignalFlushWrite();
}

}  // namespace internal

void PrintSummary(const MetricsSnapshot& snap, std::ostream& os) {
  if (!snap.counters.empty() || !snap.gauges.empty()) {
    TablePrinter t({"metric", "value"});
    for (const auto& [name, v] : snap.counters) {
      t.AddRow({name, std::to_string(v)});
    }
    for (const auto& [name, v] : snap.gauges) {
      t.AddRow({name, TablePrinter::Fixed(v, 6)});
    }
    t.Print(os);
  }
  if (!snap.histograms.empty()) {
    TablePrinter t({"histogram", "count", "mean", "p50", "p95", "p99", "max"});
    for (const auto& [name, h] : snap.histograms) {
      t.AddRow({name, std::to_string(h.count), TablePrinter::Fixed(h.Mean(), 6),
                TablePrinter::Fixed(h.Quantile(0.5), 6),
                TablePrinter::Fixed(h.Quantile(0.95), 6),
                TablePrinter::Fixed(h.Quantile(0.99), 6),
                TablePrinter::Fixed(h.Quantile(1.0), 6)});
    }
    t.Print(os);
  }
}

}  // namespace sisg::obs
