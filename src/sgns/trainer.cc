#include "sgns/trainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <thread>
#include <vector>

#include "common/alias_table.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/simd.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sisg {
namespace {

/// Tokens a worker processes between refreshes of its learning rate from
/// the global token count; also the cadence of its replica syncs.
constexpr uint64_t kRefreshTokens = 4096;

/// Hot-row replicas: ATNS's hot-set rule (HotPrefixSize), capped so one
/// thread's working and base copies of both matrices fit in this many bytes
/// (K = 512 at d = 64).
constexpr size_t kReplicaBytesPerThread = size_t{512} * 1024;

/// One trainer thread's private copies of the K hottest input and output
/// rows (vocab ids [0, K), the frequency-sorted prefix). Input()/Output()
/// resolve an id to the thread's working copy when it is hot and to the
/// shared row otherwise, so the hot rows' cache lines stop bouncing between
/// cores. Sync() pushes each dirty row's change since the last sync into
/// the shared row (shared += working - base) and reloads working = base =
/// shared, which also pulls in the other threads' pushes. Shared rows are
/// only read and written through ops.axpy, the kernel hogwild already uses
/// on them. With K = 0 every id resolves to the shared row and Sync() has
/// nothing to do.
class HotRowReplica {
 public:
  HotRowReplica(EmbeddingModel* model, uint32_t k, const SimdOps& ops)
      : model_(model),
        ops_(ops),
        k_(k),
        dim_(model->dim()),
        stride_(model->row_stride()),
        rows_(4 * static_cast<size_t>(k) * stride_),
        dirty_(2 * static_cast<size_t>(k), 0) {
    dirty_list_.reserve(dirty_.size());
    for (uint32_t r = 0; r < 2 * k_; ++r) Reload(r);
  }

  float* Input(uint32_t v) { return v < k_ ? Touch(v) : model_->Input(v); }
  float* Output(uint32_t v) {
    return v < k_ ? Touch(k_ + v) : model_->Output(v);
  }

  void Sync() {
    for (const uint32_t r : dirty_list_) {
      float* work = Working(r);
      float* base = Base(r);
      for (size_t i = 0; i < dim_; ++i) base[i] = work[i] - base[i];
      ops_.axpy(1.0f, base, Shared(r), dim_);
      Reload(r);
      dirty_[r] = 0;
    }
    dirty_list_.clear();
  }

 private:
  // Replica row r < K is input row r, r >= K is output row r - K.
  float* Working(uint32_t r) { return rows_.data() + r * stride_; }
  float* Base(uint32_t r) { return Working(2 * k_ + r); }
  float* Shared(uint32_t r) {
    return r < k_ ? model_->Input(r) : model_->Output(r - k_);
  }

  float* Touch(uint32_t r) {
    if (!dirty_[r]) {
      dirty_[r] = 1;
      dirty_list_.push_back(r);
    }
    return Working(r);
  }

  void Reload(uint32_t r) {
    float* work = Working(r);
    Zero(work, dim_);
    ops_.axpy(1.0f, Shared(r), work, dim_);
    std::copy_n(work, dim_, Base(r));
  }

  EmbeddingModel* model_;
  const SimdOps& ops_;
  const uint32_t k_;
  const size_t dim_;
  const size_t stride_;
  AlignedFloatVector rows_;  // 2K working rows, then 2K base rows
  std::vector<uint8_t> dirty_;
  std::vector<uint32_t> dirty_list_;
};

}  // namespace

uint32_t SgnsTrainer::ReplicaRows(const Vocabulary& vocab) const {
  if (options_.num_threads <= 1) return 0;
  const size_t row_bytes = AlignedRowStride(options_.dim) * sizeof(float);
  const size_t cap = kReplicaBytesPerThread / (4 * row_bytes);
  return HotPrefixSize(vocab, static_cast<uint32_t>(cap));
}

Status SgnsTrainer::Train(const Corpus& corpus, EmbeddingModel* model,
                          TrainStats* stats,
                          const CheckpointConfig* checkpoint) const {
  if (model == nullptr) {
    return Status::InvalidArgument("sgns: model must not be null");
  }
  if (options_.negatives == 0 || options_.epochs == 0) {
    return Status::InvalidArgument("sgns: negatives and epochs must be > 0");
  }
  const Vocabulary& vocab = corpus.vocab();
  const uint32_t num_threads = std::max<uint32_t>(1, options_.num_threads);

  const TrainProgress* resume =
      checkpoint != nullptr ? checkpoint->resume : nullptr;
  const bool ckpt_active = checkpoint != nullptr &&
                           checkpoint->checkpointer != nullptr &&
                           checkpoint->interval_slots > 0;

  const uint64_t num_seqs = corpus.num_sequences();
  const uint64_t total_work = static_cast<uint64_t>(options_.epochs) * num_seqs;

  if (resume != nullptr) {
    if (model->rows() != vocab.size() || model->dim() != options_.dim) {
      return Status::FailedPrecondition(
          "sgns: resume requires the checkpointed model for this corpus");
    }
    if (resume->rng_states.size() != num_threads) {
      return Status::FailedPrecondition(
          "sgns: resume needs num_threads == checkpointed thread count (" +
          std::to_string(resume->rng_states.size()) + "), got " +
          std::to_string(num_threads));
    }
    if (resume->next_work > total_work) {
      return Status::InvalidArgument(
          "sgns: resume point beyond this corpus/epoch plan");
    }
  } else if (options_.warm_start) {
    if (model->rows() != vocab.size() || model->dim() != options_.dim) {
      return Status::FailedPrecondition(
          "sgns: warm start requires a model shaped for this corpus");
    }
  } else {
    SISG_RETURN_IF_ERROR(model->Init(vocab.size(), options_.dim, options_.seed));
  }

  SISG_ASSIGN_OR_RETURN(AliasTable noise, vocab.BuildNoise());
  Subsampler subsampler;
  subsampler.Build(vocab, options_.subsample);
  const SigmoidTable sigmoid;
  const SimdOps& ops = GetSimdOps();
  const uint32_t replica_rows = ReplicaRows(vocab);

  const uint64_t planned_tokens =
      static_cast<uint64_t>(options_.epochs) * corpus.num_tokens();
  const uint64_t initial_tokens =
      resume != nullptr ? resume->processed_tokens : 0;
  std::atomic<uint64_t> processed_tokens{initial_tokens};
  std::atomic<uint64_t> total_pairs{resume != nullptr ? resume->pairs_trained
                                                      : 0};
  std::atomic<uint64_t> total_kept{resume != nullptr ? resume->tokens_kept : 0};

  // The packed arena: one contiguous token stream, sequence i is the span
  // [offsets[i], offsets[i+1]). Epoch iteration walks it front to back, so
  // the prefetcher sees one sequential read instead of a pointer chase.
  const PackedCorpus& packed = corpus.packed();
  const size_t dim = options_.dim;

  // Dynamic work queue over epoch-major sequence slots. Static `s = tid;
  // s += num_threads` sharding leaves threads idle behind whichever one drew
  // the longest sessions; a chunked atomic counter lets fast threads steal
  // the remainder. Chunks are large enough that the fetch_add is invisible
  // next to the per-sequence work, small enough to balance skewed tails.
  const uint64_t chunk_size = std::max<uint64_t>(
      1, std::min<uint64_t>(256, num_seqs / (8ull * num_threads) + 1));
  std::atomic<uint64_t> next_work{resume != nullptr ? resume->next_work : 0};

  auto lr_at = [&](uint64_t tokens) {
    return LinearDecayLr(options_.learning_rate, tokens, planned_tokens);
  };

  // Checkpoint machinery: threads rendezvous at chunk boundaries every
  // `interval_slots` dispatched slots; the elected leader snapshots the
  // quiesced model while the others are parked.
  const uint64_t interval = ckpt_active ? checkpoint->interval_slots : 0;
  std::atomic<uint64_t> next_ckpt{
      ckpt_active
          ? (next_work.load(std::memory_order_relaxed) / interval + 1) * interval
          : 0};
  CheckpointBarrier barrier(num_threads);
  std::vector<std::array<uint64_t, 4>> rng_snapshot(num_threads);
  std::atomic<bool> abort{false};
  Status abort_status;  // written by at most one leader before abort is set
  uint64_t checkpoints_saved = 0;

  // Leader-only (serialized by the barrier): write model + progress. On an
  // injected crash or a save failure, stop every worker.
  auto leader_checkpoint = [&]() {
    TrainProgress p;
    p.next_work =
        std::min(next_work.load(std::memory_order_relaxed), total_work);
    p.processed_tokens = processed_tokens.load(std::memory_order_relaxed);
    p.pairs_trained = total_pairs.load(std::memory_order_relaxed);
    p.tokens_kept = total_kept.load(std::memory_order_relaxed);
    p.rng_states = rng_snapshot;
    Status s = checkpoint->checkpointer->Save(*model, p);
    if (s.ok()) {
      ++checkpoints_saved;
      if (checkpoint->crash_after_saves != 0 &&
          checkpoints_saved >= checkpoint->crash_after_saves) {
        abort_status = Status::Aborted(
            "sgns: injected crash after " +
            std::to_string(checkpoints_saved) + " checkpoint(s)");
        abort.store(true, std::memory_order_release);
      }
    } else {
      abort_status = s;
      abort.store(true, std::memory_order_release);
    }
  };

  // Metrics: the flag is latched once per Train() call so every worker takes
  // the same branch; all instrumentation below is read-only with respect to
  // model state and consumes no RNG, so training output is bit-identical
  // with metrics on or off.
  const bool metrics_on = obs::MetricsEnabled();
  obs::Counter* m_pairs = nullptr;
  obs::Counter* m_tokens = nullptr;
  obs::Counter* m_chunks = nullptr;
  obs::Gauge* m_lr = nullptr;
  obs::Gauge* m_loss = nullptr;
  obs::Histogram* m_barrier = nullptr;
  obs::Counter* m_syncs = nullptr;
  obs::Histogram* m_sync_seconds = nullptr;
  if (metrics_on) {
    auto& reg = obs::MetricsRegistry::Global();
    m_pairs = reg.counter("train.pairs");
    m_tokens = reg.counter("train.tokens");
    m_chunks = reg.counter("train.chunks");
    m_lr = reg.gauge("train.lr");
    m_loss = reg.gauge("train.loss_ema");
    m_barrier = reg.histogram("train.barrier_wait_seconds");
    m_syncs = reg.counter("train.replica_syncs");
    m_sync_seconds = reg.histogram("train.replica_sync_seconds");
    reg.gauge("train.replica_rows")->Set(replica_rows);
  }

  Timer timer;
  auto worker = [&](uint32_t tid) {
    Rng rng(options_.seed + 0x51ed2701ULL * (tid + 1));
    if (resume != nullptr) rng.SetState(resume->rng_states[tid]);
    std::vector<uint32_t> kept;
    std::vector<float> grad_in(dim);
    std::vector<uint32_t> neg_ids(options_.negatives);
    std::vector<float*> neg_ptrs(options_.negatives);
    uint64_t pairs = 0;
    uint64_t kept_tokens = 0;
    uint64_t local_tokens = 0;
    float lr = lr_at(initial_tokens);
    HotRowReplica rows(model, replica_rows, ops);

    // Replica sync points: every LR refresh, before each checkpoint
    // rendezvous (so the snapshot holds every delta) and on exit.
    auto sync = [&]() {
      if (replica_rows == 0) return;
      const uint64_t sync_start = metrics_on ? MonotonicNanos() : 0;
      rows.Sync();
      if (metrics_on) {
        m_syncs->Increment();
        m_sync_seconds->Observe(
            static_cast<double>(MonotonicNanos() - sync_start) * 1e-9);
      }
    };

    // Metering state: pairs already published to the registry, plus a
    // thread-local loss EMA sampled every 1024 pairs through ops.dot (a
    // read-only probe; under hogwild the read races benignly like the
    // kernel itself and is covered by the same TSan suppressions).
    uint64_t pairs_metered = 0;
    double loss_ema = 0.0;
    bool loss_seeded = false;
    auto meter = [&](uint64_t pairs_now, uint64_t tokens_delta) {
      if (!metrics_on) return;
      m_pairs->Add(pairs_now - pairs_metered);
      pairs_metered = pairs_now;
      if (tokens_delta > 0) m_tokens->Add(tokens_delta);
      m_lr->Set(lr);
    };

    // Flush thread-local counters into the shared atomics so a snapshot (or
    // the final stats) is exact, and refresh the LR from the global token
    // count. Also runs at every checkpoint rendezvous, so the LR trajectory
    // of a resumed run matches the uninterrupted checkpointing run.
    auto flush = [&]() {
      const uint64_t done =
          processed_tokens.fetch_add(local_tokens) + local_tokens;
      const uint64_t token_delta = local_tokens;
      local_tokens = 0;
      lr = lr_at(done);
      meter(pairs, token_delta);
      total_pairs.fetch_add(pairs);
      pairs = 0;
      pairs_metered = 0;
      total_kept.fetch_add(kept_tokens);
      kept_tokens = 0;
    };

    for (;;) {
      if (ckpt_active && barrier.pending()) {
        flush();
        sync();
        rng_snapshot[tid] = rng.State();
        const uint64_t wait_start = metrics_on ? MonotonicNanos() : 0;
        if (barrier.Arrive() == CheckpointBarrier::Role::kLeader) {
          leader_checkpoint();
          barrier.Release();
        }
        if (metrics_on) {
          m_barrier->Observe(static_cast<double>(MonotonicNanos() -
                                                 wait_start) * 1e-9);
        }
      }
      if (abort.load(std::memory_order_acquire)) break;
      const uint64_t begin =
          next_work.fetch_add(chunk_size, std::memory_order_relaxed);
      if (begin >= total_work) break;
      if (metrics_on) m_chunks->Increment();
      const uint64_t end = std::min(begin + chunk_size, total_work);
      for (uint64_t slot = begin; slot < end; ++slot) {
        const std::span<const uint32_t> seq = packed.seq(slot % num_seqs);
        local_tokens += seq.size();
        if (local_tokens >= kRefreshTokens) {
          const uint64_t done =
              processed_tokens.fetch_add(local_tokens) + local_tokens;
          const uint64_t token_delta = local_tokens;
          local_tokens = 0;
          lr = lr_at(done);
          meter(pairs, token_delta);
          sync();
        }
        SubsampleSequence(seq, subsampler, rng, &kept);
        kept_tokens += kept.size();
        ForEachWindow(kept, options_.window, rng, [&](size_t i, size_t lo,
                                                      size_t hi) {
          const uint32_t target = kept[i];
          // Batch the negatives once per window (sampled avoiding the
          // target), then refresh one rotating slot per subsequent pair:
          // amortized ~1 alias draw per pair instead of `negatives`, while
          // keeping enough draw diversity across the window that quality
          // matches per-pair sampling (full reuse measurably hurts HR/CTR).
          const auto draw = [&] { return noise.Sample(rng); };
          const auto is_target = [target](uint32_t n) { return n == target; };
          bool sampled = false;
          uint32_t refresh_slot = 0;
          for (size_t j = lo; j < hi; ++j) {
            if (j == i) continue;
            const uint32_t context = kept[j];
            if (context == target) continue;  // self-pairs carry no signal
            if (!sampled) {
              sampled = true;
              for (uint32_t k = 0; k < options_.negatives; ++k) {
                neg_ids[k] = ResampleNegative(draw(), draw, is_target);
              }
            } else {
              neg_ids[refresh_slot] = ResampleNegative(draw(), draw, is_target);
              refresh_slot = (refresh_slot + 1) % options_.negatives;
            }
            const auto collides = [target, context](uint32_t n) {
              return n == context || n == target;
            };
            for (uint32_t k = 0; k < options_.negatives; ++k) {
              // Context collision: resample (bounded) instead of silently
              // dropping the negative; patch the batch so later contexts
              // keep a valid draw.
              const uint32_t neg = ResampleNegative(neg_ids[k], draw, collides);
              neg_ids[k] = neg;
              neg_ptrs[k] = collides(neg) ? nullptr : rows.Output(neg);
            }
            float* const in_row = rows.Input(target);
            float* const ctx_row = rows.Output(context);
            Zero(grad_in.data(), dim);
            ops.sgns_update_fused(in_row, grad_in.data(), ctx_row,
                                  neg_ptrs.data(),
                                  static_cast<int>(options_.negatives), lr, dim,
                                  sigmoid);
            ops.axpy(1.0f, grad_in.data(), in_row, dim);
            ++pairs;
            if (metrics_on && (pairs & 1023) == 0) {
              // Positive-pair loss probe: softplus(-dot) on the freshly
              // updated rows, via ops.dot so the benign hogwild read is
              // covered by the kernel TSan suppressions. No RNG consumed.
              const double s = ops.dot(in_row, ctx_row, dim);
              const double loss = s > 0.0 ? std::log1p(std::exp(-s))
                                          : -s + std::log1p(std::exp(s));
              if (loss_seeded) {
                loss_ema = 0.95 * loss_ema + 0.05 * loss;
              } else {
                loss_ema = loss;
                loss_seeded = true;
              }
              m_loss->Set(loss_ema);
            }
          }
        });
      }
      if (ckpt_active) {
        uint64_t expected = next_ckpt.load(std::memory_order_relaxed);
        while (end >= expected) {
          if (next_ckpt.compare_exchange_weak(expected, expected + interval,
                                              std::memory_order_relaxed)) {
            barrier.Request();
            break;
          }
        }
      }
    }
    flush();
    sync();
    rng_snapshot[tid] = rng.State();
    if (ckpt_active) barrier.Leave();
  };

  if (num_threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (uint32_t t = 0; t < num_threads; ++t) threads.emplace_back(worker, t);
    for (auto& t : threads) t.join();
  }

  if (metrics_on) {
    const double secs = timer.ElapsedSeconds();
    auto& reg = obs::MetricsRegistry::Global();
    reg.gauge("train.seconds")->Set(secs);
    reg.gauge("train.pairs_per_sec")
        ->Set(secs > 0.0 ? static_cast<double>(total_pairs.load()) / secs
                         : 0.0);
  }
  if (stats != nullptr) {
    stats->pairs_trained = total_pairs.load();
    stats->tokens_seen = processed_tokens.load();
    stats->tokens_kept = total_kept.load();
    stats->seconds = timer.ElapsedSeconds();
    stats->lr_start = lr_at(initial_tokens);
    stats->lr_end = lr_at(processed_tokens.load());
    stats->checkpoints_saved = checkpoints_saved;
  }
  if (abort.load(std::memory_order_acquire)) return abort_status;
  return Status::OK();
}

}  // namespace sisg
