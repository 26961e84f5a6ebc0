#ifndef SISG_SGNS_TRAINER_H_
#define SISG_SGNS_TRAINER_H_

#include <cstdint>

#include "common/status.h"
#include "corpus/corpus.h"
#include "corpus/subsample.h"
#include "sgns/checkpoint.h"
#include "sgns/embedding_model.h"
#include "sgns/window.h"

namespace sisg {

/// Hyper-parameters of the single-machine SGNS engine. Paper defaults:
/// 20 negatives, 2 epochs, d = 128 (we default to 64 for runtime; callers
/// scale up via config).
struct SgnsOptions {
  uint32_t dim = 64;
  WindowOptions window;
  uint32_t negatives = 20;
  uint32_t epochs = 2;
  float learning_rate = 0.05f;
  SubsampleConfig subsample;
  uint32_t num_threads = 1;
  uint64_t seed = 17;

  /// When true the trainer continues from the vectors already in `model`
  /// (daily-retrain warm start via WarmStartFrom) instead of re-initializing;
  /// the model must already have corpus-vocab rows of the right dim.
  bool warm_start = false;
};

/// Statistics of one training run.
struct TrainStats {
  uint64_t pairs_trained = 0;
  uint64_t tokens_seen = 0;      // pre-subsampling
  uint64_t tokens_kept = 0;      // post-subsampling
  double seconds = 0.0;
  /// Learning rate at the first and last processed token of THIS run. A
  /// resumed run starts where the checkpointed schedule left off, so
  /// lr_start < learning_rate pins schedule continuation in tests.
  float lr_start = 0.0f;
  float lr_end = 0.0f;
  uint64_t checkpoints_saved = 0;
};

/// Classic hogwild SGNS over an enriched corpus. Threads own disjoint
/// sequence ranges and update the shared model without locks (Hogwild!),
/// which is exact on one thread and a benign race on several. With several
/// threads the hottest rows are trained on per-thread replicas instead
/// (ReplicaRows), the shared-memory form of ATNS.
class SgnsTrainer {
 public:
  explicit SgnsTrainer(const SgnsOptions& options) : options_(options) {}

  const SgnsOptions& options() const { return options_; }

  /// Initializes `model` (corpus.vocab().size() rows) and trains it.
  /// On success fills `stats` (may be nullptr).
  ///
  /// `checkpoint` (optional) enables fault tolerance: with a Checkpointer
  /// and interval_slots set, all threads rendezvous every interval_slots
  /// dispatched work slots and snapshot model + progress atomically. With
  /// `checkpoint->resume` set, `model` must already hold the checkpointed
  /// weights (Checkpointer::LoadLatest) and training continues the LR
  /// schedule, the work queue, and every per-thread RNG stream from the
  /// snapshot; num_threads must match the checkpointed run. A single-thread
  /// resumed run is bit-identical to the uninterrupted checkpointing run.
  /// Returns Status::Aborted when an injected crash stops the run.
  Status Train(const Corpus& corpus, EmbeddingModel* model,
               TrainStats* stats = nullptr,
               const CheckpointConfig* checkpoint = nullptr) const;

  /// Number K of hot rows (vocab ids [0, K)) each worker thread trains on
  /// private input and output copies, pushing its deltas into the shared
  /// rows every few thousand tokens, at every checkpoint and on exit. 0 on
  /// one thread, where the trainer is plain sequential SGD.
  uint32_t ReplicaRows(const Vocabulary& vocab) const;

 private:
  SgnsOptions options_;
};

}  // namespace sisg

#endif  // SISG_SGNS_TRAINER_H_
