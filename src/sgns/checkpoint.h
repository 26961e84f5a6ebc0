#ifndef SISG_SGNS_CHECKPOINT_H_
#define SISG_SGNS_CHECKPOINT_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "sgns/embedding_model.h"

namespace sisg {

/// Trainer progress captured alongside a model snapshot: everything a
/// resumed run needs to continue the LR schedule, the work queue and every
/// per-thread RNG stream from where the crashed run stopped.
struct TrainProgress {
  /// The one training position of both trainers: the epoch-major work slot
  /// to process next (slot = epoch * num_sequences + sequence). Every slot
  /// below it is fully processed when the snapshot is taken.
  uint64_t next_work = 0;
  uint64_t processed_tokens = 0;  // drives the LR schedule
  uint64_t pairs_trained = 0;
  uint64_t tokens_kept = 0;
  /// One stream per trainer thread (SgnsTrainer) or the engine streams
  /// (DistributedTrainer: [0] = training rng, [1] = fault rng).
  std::vector<std::array<uint64_t, 4>> rng_states;
  /// DistributedTrainer: workers that died and had their shard
  /// redistributed, in failure order.
  std::vector<uint32_t> dead_workers;
};

/// Writes periodic model + progress snapshots into a directory and finds
/// the latest complete one at startup. Layout:
///
///   <dir>/ckpt-<seq>.emb    EmbeddingModel artifact
///   <dir>/ckpt-<seq>.state  TrainProgress artifact
///   <dir>/LATEST            text file holding <seq>, replaced atomically
///
/// LATEST is only advanced after both artifacts are durably committed, so a
/// crash mid-save leaves the previous checkpoint loadable. Old checkpoints
/// beyond `keep` are pruned.
class Checkpointer {
 public:
  struct Options {
    std::string dir;
    uint32_t keep = 2;  // complete checkpoints retained
  };

  /// Creates the directory if needed and positions the sequence counter
  /// after any checkpoint already present. DataLoss when a LATEST pointer
  /// exists but does not parse.
  static StatusOr<Checkpointer> Create(const Options& options);

  Status Save(const EmbeddingModel& model, const TrainProgress& progress);

  /// Loads the newest complete checkpoint. NotFound when the directory has
  /// none; DataLoss when the newest is corrupt (callers may fall back to an
  /// older seq manually — LATEST names only the newest).
  Status LoadLatest(EmbeddingModel* model, TrainProgress* progress) const;

  const std::string& dir() const { return options_.dir; }
  uint64_t saves() const { return saves_; }
  uint64_t latest_seq() const { return next_seq_ - 1; }  // 0 = none yet

 private:
  explicit Checkpointer(Options options, uint64_t next_seq)
      : options_(std::move(options)), next_seq_(next_seq) {}

  Options options_;
  uint64_t next_seq_ = 1;
  uint64_t saves_ = 0;
};

/// How a trainer checkpoints and/or resumes. Passed to
/// SgnsTrainer::Train / DistributedTrainer::Train; null = no fault
/// tolerance (seed behavior).
struct CheckpointConfig {
  Checkpointer* checkpointer = nullptr;
  /// Snapshot cadence of both trainers, in work slots (one slot is one
  /// sequence of one epoch); 0 = no periodic snapshots.
  uint64_t interval_slots = 0;
  /// Fault-injection hook: return Status::Aborted after this many
  /// successful saves (0 = never). Simulates a whole-job crash with durable
  /// checkpoints left behind.
  uint32_t crash_after_saves = 0;
  /// When set, the trainer continues from this snapshot; the model passed
  /// to Train must already hold the checkpointed weights.
  const TrainProgress* resume = nullptr;
};

/// Rendezvous point for quiesced hogwild snapshots. Worker threads poll
/// pending() at chunk boundaries; once a checkpoint is requested every live
/// thread calls Arrive(), exactly one becomes the leader, writes the
/// snapshot while the others are parked, then calls Release(). Threads that
/// run out of work Leave() the pool so a pending round never waits on them.
class CheckpointBarrier {
 public:
  explicit CheckpointBarrier(uint32_t participants) : live_(participants) {}

  /// Flags a checkpoint round; idempotent while the round is pending.
  void Request() { pending_.store(true, std::memory_order_release); }
  bool pending() const { return pending_.load(std::memory_order_acquire); }

  enum class Role { kLeader, kFollower };

  /// Blocks until all live participants arrive; the caller elected leader
  /// returns kLeader and must call Release() after its snapshot work.
  Role Arrive();

  /// Leader only: completes the round and releases the followers.
  void Release();

  /// Permanently removes the caller from the pool (worker out of work). May
  /// elect a leader among already-arrived waiters.
  void Leave();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> pending_{false};
  uint32_t live_;
  uint32_t arrived_ = 0;
  uint64_t generation_ = 0;
  bool leader_claimed_ = false;
};

}  // namespace sisg

#endif  // SISG_SGNS_CHECKPOINT_H_
