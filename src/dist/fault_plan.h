#ifndef SISG_DIST_FAULT_PLAN_H_
#define SISG_DIST_FAULT_PLAN_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace sisg {

/// Deterministic fault-injection schedule for the simulated distributed
/// engine. All faults are driven by a dedicated seeded RNG, so a plan
/// reproduces the exact same failure sequence on every run.
///
/// Parseable from a flag spec: comma-separated `key=value` entries, e.g.
///   "kill_worker=2,kill_at_pair=50000,drop=0.01,seed=7"
/// Keys: kill_worker, kill_at_pair, drop, dup, sync_delay_every,
/// sync_delay_s, crash_at_pair, seed.
struct FaultPlan {
  /// Worker to kill (-1 = none) once `kill_at_pair` pairs have been
  /// processed. Its vocabulary shard is redistributed to the survivors and
  /// its rows roll back to the last checkpoint snapshot.
  int32_t kill_worker = -1;
  uint64_t kill_at_pair = 0;

  /// Per-attempt probability that a remote TNS call is lost in flight
  /// (triggering retry with exponential backoff) or that its response is
  /// delivered twice (suppressed by dedup, counted).
  double remote_drop_rate = 0.0;
  double remote_dup_rate = 0.0;

  /// Every Nth replica-averaging round is delayed by `sync_delay_s` modeled
  /// seconds (0 = never).
  uint64_t sync_delay_every = 0;
  double sync_delay_s = 0.0;

  /// Whole-job crash: training returns Status::Aborted once this many pairs
  /// are processed (0 = never). Durable checkpoints remain for resume.
  uint64_t crash_at_pair = 0;

  uint64_t seed = 1234;

  /// True when any fault is configured.
  bool Active() const {
    return kill_worker >= 0 || remote_drop_rate > 0.0 ||
           remote_dup_rate > 0.0 || sync_delay_every > 0 || crash_at_pair > 0;
  }

  /// Parses the flag spec described above. Empty spec = inactive plan.
  static StatusOr<FaultPlan> Parse(const std::string& spec);

  std::string ToString() const;
};

}  // namespace sisg

#endif  // SISG_DIST_FAULT_PLAN_H_
