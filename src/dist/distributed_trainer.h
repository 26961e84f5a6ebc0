#ifndef SISG_DIST_DISTRIBUTED_TRAINER_H_
#define SISG_DIST_DISTRIBUTED_TRAINER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "corpus/corpus.h"
#include "corpus/token_space.h"
#include "dist/comm_stats.h"
#include "dist/fault_plan.h"
#include "sgns/checkpoint.h"
#include "sgns/embedding_model.h"
#include "sgns/trainer.h"

namespace sisg {

/// Configuration of the simulated distributed engine (Section III).
struct DistOptions {
  SgnsOptions sgns;
  uint32_t num_workers = 4;

  /// ATNS (Section III-A): replicate the hottest tokens on every worker and
  /// average the replicas periodically. The shared set Q is the hot set of
  /// HotPrefixSize (Section III-C step 4: "all elements with frequency above
  /// a certain threshold" — in practice mostly SI like age, gender, color),
  /// capped at 8192 tokens. With use_atns = false the engine runs plain TNS:
  /// no hot set, every non-local context costs a remote call, and hot
  /// contexts pile up on their owning worker.
  bool use_atns = true;

  /// Route pairs and count communication without touching any vectors.
  /// Used by the scalability benches, where only the measured counters
  /// (fed to the cost model) matter.
  bool dry_run = false;

  uint64_t seed = 23;

  /// Deterministic fault injection (worker kill, dropped/duplicated remote
  /// calls, delayed syncs, whole-job crash). Dropped remote calls retry with
  /// a fixed exponential backoff (4 retries, 10 ms base, 1 s cap, 0.5 s
  /// per-call budget). Default plan is inactive: fault-free behavior is
  /// bit-identical to the seed engine.
  FaultPlan fault;
};

struct DistTrainResult {
  CommStats comm;
  TrainStats train;
};

/// Faithful single-process simulation of the paper's distributed word2vec
/// engine: the vocabulary is sharded across `num_workers` (items via a
/// Partitioner's category assignment, SI and user types randomly, Section
/// III-C step 3), each worker keeps a local noise distribution over
/// P_j U Q, and every pair executes Algorithm 1 — the context owner runs
/// the TNS function (output updates + local negatives) and the input
/// gradient travels back to the target owner. All parameter updates are
/// applied for real, so the trained model's quality can be compared
/// against the local trainer; communication is *measured*, and the cluster
/// cost model turns the measurements into wall-clock estimates.
class DistributedTrainer {
 public:
  explicit DistributedTrainer(const DistOptions& options) : options_(options) {}

  const DistOptions& options() const { return options_; }

  /// `item_worker[item]` = worker owning that item's vectors (values in
  /// [0, num_workers)). `model` may be nullptr only in dry-run mode.
  ///
  /// `checkpoint` (optional): with a Checkpointer and interval_slots set,
  /// the engine snapshots model + progress every interval_slots work slots
  /// (sequences, epoch-major), forcing a replica sync first so the snapshot
  /// is consistent. With `checkpoint->resume` set, `model` must hold the
  /// checkpointed weights and training continues from the saved next_work
  /// slot, RNG streams ([0] training, [1] fault) and dead-worker list; a
  /// fault-free resumed run is bit-identical to the uninterrupted run with
  /// the same cadence. A worker killed by the fault plan has its shard
  /// redistributed to the survivors and its rows rolled back to the last
  /// snapshot. Returns Status::Aborted on an injected crash.
  Status Train(const Corpus& corpus, const TokenSpace& token_space,
               const std::vector<uint32_t>& item_worker, EmbeddingModel* model,
               DistTrainResult* result,
               const CheckpointConfig* checkpoint = nullptr) const;

 private:
  DistOptions options_;
};

}  // namespace sisg

#endif  // SISG_DIST_DISTRIBUTED_TRAINER_H_
