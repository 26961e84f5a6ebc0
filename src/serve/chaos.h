#ifndef SISG_SERVE_CHAOS_H_
#define SISG_SERVE_CHAOS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/matching_engine.h"

namespace sisg::serve {

/// Seeded fault-injection schedule for the serving network edge — the
/// FaultPlan idiom (dist/fault_plan.h) pointed at a live server instead of
/// the simulated trainer. Every attack a worker runs is drawn from a
/// dedicated seeded RNG, so a chaos run reproduces the same hostile byte
/// sequences every time.
///
/// Parseable from a flag spec: comma-separated mode names plus optional
/// `key=value` entries, e.g. "disconnect,garbage,seed=7" or "all".
/// Modes: disconnect (mid-frame hangup), garbage (random bytes), truncate
/// (header promises more than is sent), slowloris (one byte at a time,
/// stalled), churn (connect/close storms). Keys: seed.
struct ChaosPlan {
  bool mid_frame_disconnect = false;
  bool garbage_frames = false;
  bool truncated_frames = false;
  bool slowloris = false;
  bool connection_churn = false;
  uint64_t seed = 1234;

  bool Active() const {
    return mid_frame_disconnect || garbage_frames || truncated_frames ||
           slowloris || connection_churn;
  }

  static StatusOr<ChaosPlan> Parse(const std::string& spec);
  std::string ToString() const;
};

/// Tallies from chaos workers; every field is monotonic and thread-safe,
/// so one instance can aggregate any number of concurrent workers.
struct ChaosStats {
  std::atomic<uint64_t> attacks{0};
  std::atomic<uint64_t> disconnects{0};
  std::atomic<uint64_t> garbage{0};
  std::atomic<uint64_t> truncated{0};
  std::atomic<uint64_t> slowloris{0};
  std::atomic<uint64_t> churns{0};
  /// Valid queries interleaved between attacks that came back OK/BUSY —
  /// the proof the server kept serving through the abuse.
  std::atomic<uint64_t> probes_ok{0};
  std::atomic<uint64_t> probes_failed{0};
};

/// Runs one chaos worker against host:port until MonotonicNanos() passes
/// `deadline_ns`: each round draws an enabled attack mode from the plan's
/// RNG (worker-seeded: plan.seed ^ worker_id), fires it, then issues one
/// well-formed probe query (item < num_items) on a fresh connection to
/// verify the server still answers. Only probe failures are reported as
/// errors — attack connections are EXPECTED to be dropped/evicted.
/// Always returns (never throws, never blocks past the deadline by more
/// than one bounded socket timeout).
void RunChaosWorker(const std::string& host, uint16_t port,
                    const ChaosPlan& plan, uint32_t num_items,
                    uint64_t deadline_ns, uint64_t worker_id,
                    ChaosStats* stats);

/// The deterministic synthetic engine: `items` x `dim` Gaussian rows drawn
/// from `seed`, served in cosine mode. Same seed -> same engine -> same
/// answers, so sisg_serve --synth_items, reload storms and tests can all
/// rebuild the exact offline engine for any version they saw answering.
StatusOr<MatchingEngine> BuildSynthEngine(uint32_t items, uint32_t dim,
                                          uint64_t seed);

/// Publishes a deterministic synthetic serving arena into `dir` as version
/// `token`: builds BuildSynthEngine(items, dim, seed), saves
/// `<dir>/<token>.arena` (and `<token>.qarena` when `with_int8`), then
/// atomically replaces `<dir>/LATEST` with the token —
/// artifacts first, pointer last, the Checkpointer publication order. This
/// is what reload storms in tests and sisg_loadgen --reload_dir use as a
/// model publisher.
Status PublishSynthArena(const std::string& dir, const std::string& token,
                         uint32_t items, uint32_t dim, uint64_t seed,
                         bool with_int8);

}  // namespace sisg::serve

#endif  // SISG_SERVE_CHAOS_H_
