// Shared plumbing of the pipeline benchmark driver: arguments, sample
// statistics, the in-memory span tracer, host tagging and the one-line JSON
// result the benchmark contract asks for.
#ifndef PIPEBENCH_DRIVER_BENCH_H_
#define PIPEBENCH_DRIVER_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/top_k.h"

namespace sisg {
class MatchingEngine;
}

namespace pipebench {

/// Command-line arguments of one `gen` or `run` invocation.
struct Args {
  std::string mode;       // "gen" or "run"
  std::string workload;   // a workload name from BENCHMARK.json
  uint64_t seed = 1;
  double seconds = 10.0;  // length of the timed phase
  bool trace = false;
  std::string dir;        // working directory for inputs and artifacts
  std::string serve_bin;  // path of the sisg_serve binary (serving only)
};

/// Every thread the driver and the server it starts keep busy, summed. The
/// driver refuses to run when this exceeds the host's cores: a run that
/// oversubscribes measures the scheduler, not the program.
constexpr unsigned kThreadBudget = 4;

// --- sample statistics -----------------------------------------------------

/// Nearest-rank quantile (q in [0,1]) of `v`; +inf samples sort last. 0 for
/// an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// --- tracing -----------------------------------------------------------------

/// One timed call into a layer's public function. `name` is
/// "<layer>.<call>", so the layer is the part before the first dot.
struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;   // index into the tracer's span list, -1 = root
  int64_t request = -1;  // request id for serving spans, -1 = none
};

/// Spans kept in memory for the whole run and written out once at exit.
/// Disabled tracers record nothing, so timed (untraced) runs pay one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index (-1 when
  /// disabled).
  int64_t Begin(const std::string& name);
  void End(int64_t index);
  /// Records an already-finished span as a root (serving requests, whose
  /// begin and end are observed on different loop iterations).
  void AddRoot(const std::string& name, uint64_t start_ns, uint64_t end_ns,
               int64_t request);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the time covered by direct children) of
  /// every span, by index.
  std::vector<double> SelfSeconds() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span: times one call when the tracer is enabled.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~Scope() { tracer_->End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

// --- host --------------------------------------------------------------------

/// Online cores as the scheduler reports them.
unsigned HostCores();

/// Milliseconds a fixed single-thread integer loop takes: the host-noise
/// probe. A run whose calibration reads high ran on a busy host.
double CalibrateMillis();

/// Prints the host tag (cores, SIMD dispatch level, compiler, build type,
/// calibration) as one line on stdout and returns the calibration.
double PrintHostTag();

/// Keeps idle cores from halting while it lives, by running `n` spin
/// threads at SCHED_IDLE priority: they run only when a core has nothing
/// else to do, so they never delay the measured program's threads. On a
/// virtual machine a halted core takes milliseconds to wake (a 1 ms sleep
/// overran by 3.5 ms at p99 on a 4-vCPU virtual machine), which
/// otherwise dominates request latency. The in-guest equivalent of turning
/// off deep idle states, as latency benchmarks on bare metal do.
class KeepAwake {
 public:
  explicit KeepAwake(unsigned n);
  ~KeepAwake() { Stop(); }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;
  void Stop();

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Peak resident set (VmHWM) of a process in MB (0 = this process), or -1
/// when unreadable.
double PeakRssMb(int pid);

/// Resets this process's VmHWM to its current resident set, so the next
/// PeakRssMb(0) reads the peak of what ran in between. Returns false when
/// the kernel refuses.
bool ResetPeakRss();

/// FNV-1a over a file's bytes (0 when unreadable), for byte-identity checks.
uint64_t HashFile(const std::string& path);

/// Seconds since an arbitrary fixed point (steady clock).
double NowSeconds();

// --- the program under test -------------------------------------------------

/// Prints `what` and the status on stderr when `st` is an error; returns
/// whether it was.
bool Fail(const sisg::Status& st, const std::string& what);

/// Loads a saved serving arena pair (`prefix`.arena + `prefix`.qarena) into
/// `engine`, as sisg_serve does.
sisg::Status LoadServingEngine(const std::string& prefix, bool use_mmap,
                               sisg::MatchingEngine* engine);

/// Same ids and bit-identical scores: the exactness the repository's
/// serving contracts (coalesced = per-query, heap = mmap) promise.
bool SameAnswers(const std::vector<sisg::ScoredId>& a,
                 const std::vector<sisg::ScoredId>& b);

// --- result ------------------------------------------------------------------

/// The metrics of one run, printed as the final stdout line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Prints {"correct","attempted","failed","metrics"} on one line.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
};

/// Counts operations and their outcome. Every workload expects each
/// operation to succeed and pass its output check, so a single failure
/// makes the run incorrect: `ok_ratio` below 1 and `correct` false go
/// together.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Ok() { ++attempted; }
  /// Records an operation that failed or failed its output check; the
  /// first few reasons go to stderr.
  void Fail(const std::string& why);
  bool correct() const { return failed == 0; }
  double ok_ratio() const {
    return attempted == 0
               ? 0.0
               : static_cast<double>(attempted - failed) /
                     static_cast<double>(attempted);
  }
};

// --- workloads ---------------------------------------------------------------

int GenOffline(const Args& args);
int RunOffline(const Args& args);
int GenServing(const Args& args);
int RunServing(const Args& args);

}  // namespace pipebench

#endif  // PIPEBENCH_DRIVER_BENCH_H_
