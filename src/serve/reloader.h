#ifndef SISG_SERVE_RELOADER_H_
#define SISG_SERVE_RELOADER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "core/matching_engine.h"
#include "serve/model_registry.h"

namespace sisg::serve {

struct ReloaderOptions {
  /// Directory holding the published artifacts and the LATEST pointer.
  /// LATEST names a token <tok>; the reloader serves the frozen serving
  /// arena `<tok>.arena` (plus `<tok>.qarena` when serving int8). Trainer
  /// checkpoints (`ckpt-<seq>.emb`) are not servable: their rows are vocab
  /// ids, not item ids, and carry no similarity mode.
  std::string watch_dir;
  /// LATEST poll cadence for the background thread.
  uint32_t poll_interval_ms = 1000;
  /// Map arena artifacts instead of loading them into the heap.
  bool use_mmap = false;
  /// The server's scan precision (fp32|int8|pq): every version loads
  /// through LoadServingVersion with it, so a reload serves what startup
  /// served or is rejected — never a silent fp32 fallback mid-flight.
  std::string quant = "fp32";
};

/// Invariant checks a candidate engine must pass before it may serve:
/// non-zero trained item count, and for 8 evenly spaced trained items a
/// top-10 canary query that is non-empty with finite scores, in-range ids
/// and not the query item itself. This is the publish gate for hot reloads
/// and the startup gate for sisg_serve's --port_file handshake.
Status ValidateServingEngine(const MatchingEngine& engine);

/// The quant-and-validate step every serving version goes through: switches
/// `engine` to the `quant` scan — fp32; int8, reading `qarena_path` or, when
/// it is empty, quantizing in place; pq, IVF-PQ built in place — then runs
/// ValidateServingEngine. An unknown name or a failed enable is an error
/// (the enables leave a failed engine as it was, and this loader drops it),
/// because a version that cannot serve the precision it was asked for must
/// not serve at all.
Status PrepareServingEngine(MatchingEngine* engine, const std::string& quant,
                            const std::string& qarena_path, bool use_mmap);

/// The one serving loader, shared by sisg_serve's startup, every hot reload
/// and sisg_query --arena: loads `<prefix>.arena` (NotFound when absent)
/// and applies PrepareServingEngine with `<prefix>.qarena` as the int8
/// codes. Any failure returns the error and no engine.
StatusOr<MatchingEngine> LoadServingVersion(const std::string& prefix,
                                            const std::string& quant,
                                            bool use_mmap);

/// Background hot-swap watcher: polls `watch_dir`/LATEST and, when it names
/// a version not yet attempted, loads the artifacts into a FRESH engine off
/// the serving path, validates (artifact CRCs via the loaders + canary
/// queries), and only then publishes to the registry. Every failure —
/// unreadable pointer, missing artifact, CRC mismatch, shape mismatch,
/// canary violation — rolls back to the currently serving snapshot: the
/// registry is untouched, serve.reload_failed increments, and serving
/// continues bit-identically. The process never exits because a deploy was
/// bad; that is the whole point.
///
/// Obs wiring: serve.reload_ok / serve.reload_failed (counters),
/// serve.reload_seconds (histogram over successful swap build+validate
/// time), serve.model_version (gauge, set by the registry on publish).
class ModelReloader {
 public:
  ModelReloader(ModelRegistry* registry, const ReloaderOptions& options);
  ~ModelReloader();

  ModelReloader(const ModelReloader&) = delete;
  ModelReloader& operator=(const ModelReloader&) = delete;

  /// Spawns the polling thread. InvalidArgument when watch_dir is empty.
  Status Start();

  /// Stops and joins the polling thread. Idempotent.
  void Stop();

  /// One synchronous poll-and-maybe-swap step (also what the background
  /// thread runs). Returns OK when there was nothing new to do OR a swap
  /// succeeded; a non-OK return is a failed reload attempt (already counted
  /// and logged — callers may ignore it, the server keeps serving).
  Status PollOnce();

  /// Reload attempts that failed validation and rolled back (tests).
  uint64_t failed_reloads() const { return failed_; }
  /// Successful hot swaps (tests).
  uint64_t ok_reloads() const { return ok_; }

 private:
  /// Reads LATEST; empty string when absent/unreadable (not an error: the
  /// publisher may simply not have produced anything yet).
  std::string ReadLatestToken() const;

  ModelRegistry* registry_;
  const ReloaderOptions options_;

  /// Last LATEST token an attempt was made for (success OR failure). A bad
  /// artifact is attempted once, not re-attempted every poll tick — a
  /// reload storm of garbage must not melt the CPU that serves traffic.
  std::string last_attempted_token_;
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> ok_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace sisg::serve

#endif  // SISG_SERVE_RELOADER_H_
