#include "dist/distributed_trainer.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/alias_table.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/simd.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sgns/window.h"

namespace sisg {
namespace {

// Per-pair wire overhead of one remote TNS call: message headers for the
// request (token id, lr, flags) and the response.
constexpr uint64_t kMessageHeaderBytes = 16;

// Upper bound on the ATNS hot set |Q|.
constexpr uint32_t kMaxHotSetSize = 8192;

// Retry policy of a remote TNS call. Backoff time is modeled (the simulation
// does not sleep) and accounted in CommStats::backoff_seconds.
constexpr uint32_t kMaxRetries = 4;     // retransmissions after the first
constexpr double kBaseBackoffS = 0.01;  // backoff after the first drop
constexpr double kMaxBackoffS = 1.0;    // exponential backoff cap
constexpr double kCallTimeoutS = 0.5;   // per-call budget, then pair lost

}  // namespace

Status DistributedTrainer::Train(const Corpus& corpus,
                                 const TokenSpace& token_space,
                                 const std::vector<uint32_t>& item_worker,
                                 EmbeddingModel* model,
                                 DistTrainResult* result,
                                 const CheckpointConfig* checkpoint) const {
  const uint32_t W = options_.num_workers;
  if (W == 0) return Status::InvalidArgument("dist: num_workers must be > 0");
  if (!options_.dry_run && model == nullptr) {
    return Status::InvalidArgument("dist: model required unless dry_run");
  }
  if (item_worker.size() < token_space.num_items()) {
    return Status::InvalidArgument("dist: item_worker smaller than item count");
  }
  for (uint32_t w : item_worker) {
    if (w >= W) return Status::OutOfRange("dist: item_worker value out of range");
  }
  const FaultPlan& plan = options_.fault;
  if (plan.kill_worker >= 0) {
    if (static_cast<uint32_t>(plan.kill_worker) >= W) {
      return Status::InvalidArgument("dist: fault plan kills worker " +
                                     std::to_string(plan.kill_worker) +
                                     " but only " + std::to_string(W) +
                                     " workers exist");
    }
    if (W < 2) {
      return Status::InvalidArgument(
          "dist: cannot redistribute a killed worker's shard with < 2 workers");
    }
  }

  const TrainProgress* resume =
      checkpoint != nullptr ? checkpoint->resume : nullptr;
  const bool ckpt_active = checkpoint != nullptr &&
                           checkpoint->checkpointer != nullptr &&
                           checkpoint->interval_slots > 0;
  if (resume != nullptr && resume->rng_states.size() != 2) {
    return Status::FailedPrecondition(
        "dist: resume snapshot must carry 2 rng streams (train, fault), got " +
        std::to_string(resume->rng_states.size()));
  }

  const Vocabulary& vocab = corpus.vocab();
  const uint32_t V = vocab.size();
  const size_t dim = options_.sgns.dim;
  const SimdOps& ops = GetSimdOps();
  Rng assign_rng(options_.seed);

  if (resume != nullptr && !options_.dry_run &&
      (model->rows() != V || model->dim() != options_.sgns.dim)) {
    return Status::FailedPrecondition(
        "dist: resume requires the checkpointed model for this corpus");
  }

  // --- Vocabulary sharding (Section III-C step 3) ---
  std::vector<uint32_t> owner(V);
  for (uint32_t v = 0; v < V; ++v) {
    const uint32_t tok = vocab.ToToken(v);
    if (token_space.IsItem(tok)) {
      owner[v] = item_worker[token_space.TokenToItem(tok)];
    } else {
      owner[v] = static_cast<uint32_t>(assign_rng.UniformU64(W));
    }
  }

  // --- ATNS hot set Q: the hot prefix of the frequency-sorted vocab.
  const uint32_t K =
      options_.use_atns ? HotPrefixSize(vocab, kMaxHotSetSize) : 0;
  std::vector<int32_t> hot_index(V, -1);
  for (uint32_t v = 0; v < K; ++v) hot_index[v] = static_cast<int32_t>(v);

  // --- Worker liveness. A kill redistributes the dead worker's shard
  // deterministically over the survivors; on resume the recorded kills are
  // re-applied so the ownership map matches the checkpointed run.
  std::vector<bool> alive(W, true);
  std::vector<uint32_t> live_ids(W);
  for (uint32_t w = 0; w < W; ++w) live_ids[w] = w;
  std::vector<uint32_t> dead_workers;
  auto apply_kill = [&](uint32_t dead) -> Status {
    if (dead >= W || !alive[dead]) {
      return Status::InvalidArgument("dist: invalid kill of worker " +
                                     std::to_string(dead));
    }
    alive[dead] = false;
    live_ids.clear();
    for (uint32_t w = 0; w < W; ++w) {
      if (alive[w]) live_ids.push_back(w);
    }
    if (live_ids.empty()) {
      return Status::FailedPrecondition("dist: no live workers remain");
    }
    for (uint32_t v = 0; v < V; ++v) {
      if (owner[v] == dead) owner[v] = live_ids[v % live_ids.size()];
    }
    dead_workers.push_back(dead);
    return Status::OK();
  };
  if (resume != nullptr) {
    for (uint32_t dead : resume->dead_workers) {
      SISG_RETURN_IF_ERROR(apply_kill(dead));
    }
  }

  // --- Per-worker local noise distributions over P_j U Q --- (rebuilt after
  // a kill, since the survivors absorb the dead worker's shard)
  std::vector<std::vector<uint32_t>> local_vocab(W);
  std::vector<AliasTable> noise(W);
  auto build_noise = [&]() -> Status {
    for (uint32_t w = 0; w < W; ++w) local_vocab[w].clear();
    for (uint32_t v = 0; v < V; ++v) {
      if (hot_index[v] >= 0) continue;  // hot ids added to every worker below
      local_vocab[owner[v]].push_back(v);
    }
    for (uint32_t w = 0; w < W; ++w) {
      if (!alive[w]) continue;
      for (uint32_t v = 0; v < K; ++v) local_vocab[w].push_back(v);
      if (local_vocab[w].empty()) {
        // A worker that owns nothing still participates; give it the full
        // vocabulary as noise so sampling stays well-defined.
        for (uint32_t v = 0; v < V; ++v) local_vocab[w].push_back(v);
      }
    }
    if (!options_.dry_run) {
      for (uint32_t w = 0; w < W; ++w) {
        if (!alive[w]) continue;
        SISG_ASSIGN_OR_RETURN(noise[w], vocab.BuildNoiseOver(local_vocab[w]));
      }
    }
    return Status::OK();
  };
  SISG_RETURN_IF_ERROR(build_noise());

  // --- Model + hot replicas ---
  if (!options_.dry_run && resume == nullptr) {
    SISG_RETURN_IF_ERROR(model->Init(V, options_.sgns.dim, options_.sgns.seed));
  }
  // replicas[w] holds K input rows then K output rows.
  std::vector<std::vector<float>> replicas;
  if (!options_.dry_run && K > 0) {
    replicas.assign(W, std::vector<float>(2 * static_cast<size_t>(K) * dim));
    for (uint32_t w = 0; w < W; ++w) {
      for (uint32_t v = 0; v < K; ++v) {
        std::copy_n(model->Input(v), dim, replicas[w].data() + v * dim);
        std::copy_n(model->Output(v), dim,
                    replicas[w].data() + (static_cast<size_t>(K) + v) * dim);
      }
    }
  }
  auto input_row = [&](uint32_t v, uint32_t w) -> float* {
    const int32_t h = hot_index[v];
    return h >= 0 && !replicas.empty()
               ? replicas[w].data() + static_cast<size_t>(h) * dim
               : model->Input(v);
  };
  auto output_row = [&](uint32_t v, uint32_t w) -> float* {
    const int32_t h = hot_index[v];
    return h >= 0 && !replicas.empty()
               ? replicas[w].data() + (static_cast<size_t>(K) + h) * dim
               : model->Output(v);
  };

  // --- Recovery store: plain copy of every row, refreshed at each
  // checkpoint. A killed worker's rows roll back to this snapshot (the
  // updates it absorbed since are lost, exactly like a real parameter-shard
  // failure restored from its last checkpoint).
  std::vector<float> snap_in, snap_out;
  auto refresh_snapshot = [&]() {
    if (options_.dry_run) return;
    snap_in.resize(static_cast<size_t>(V) * dim);
    snap_out.resize(static_cast<size_t>(V) * dim);
    for (uint32_t v = 0; v < V; ++v) {
      std::copy_n(model->Input(v), dim,
                  snap_in.begin() + static_cast<size_t>(v) * dim);
      std::copy_n(model->Output(v), dim,
                  snap_out.begin() + static_cast<size_t>(v) * dim);
    }
  };
  refresh_snapshot();

  // --- Counters ---
  CommStats comm;
  comm.pairs_per_worker.assign(W, 0);
  comm.remote_calls_per_worker.assign(W, 0);
  comm.bytes_per_worker.assign(W, 0);
  comm.worker_failures = static_cast<uint64_t>(dead_workers.size());
  comm.worker_recoveries = comm.worker_failures;

  // Metrics: latched once per run; all instrumentation is read-only and
  // consumes no RNG, so seeded fault injection stays deterministic with
  // metrics on or off. CommStats folds into the registry at end of run.
  const bool metrics_on = obs::MetricsEnabled();
  obs::Histogram* m_sync = nullptr;
  obs::Histogram* m_retries_per_call = nullptr;
  obs::Histogram* m_backoff_per_call = nullptr;
  if (metrics_on) {
    auto& reg = obs::MetricsRegistry::Global();
    m_sync = reg.histogram("dist.sync_seconds");
    m_retries_per_call = reg.histogram("dist.retries_per_call");
    m_backoff_per_call = reg.histogram("dist.backoff_per_call_seconds");
  }

  auto sync_replicas = [&]() {
    if (K == 0) return;
    obs::TraceSpan sync_span(m_sync);
    ++comm.sync_rounds;
    if (plan.sync_delay_every > 0 &&
        comm.sync_rounds % plan.sync_delay_every == 0) {
      ++comm.sync_delays;
      comm.delay_seconds += plan.sync_delay_s;
    }
    const uint64_t live = live_ids.size();
    // Every live worker ships its K replicas (in + out) and receives the
    // average.
    comm.sync_bytes +=
        2ull * live * K * dim * sizeof(float) * 2;  // send + receive
    if (replicas.empty()) return;
    std::vector<float> avg(2 * static_cast<size_t>(K) * dim, 0.0f);
    for (uint32_t w : live_ids) {
      ops.axpy(1.0f, replicas[w].data(), avg.data(), avg.size());
    }
    Scale(1.0f / static_cast<float>(live), avg.data(), avg.size());
    for (uint32_t w : live_ids) replicas[w] = avg;
    for (uint32_t v = 0; v < K; ++v) {
      std::copy_n(avg.data() + static_cast<size_t>(v) * dim, dim, model->Input(v));
      std::copy_n(avg.data() + (static_cast<size_t>(K) + v) * dim, dim,
                  model->Output(v));
    }
  };

  // --- Training ---
  const SgnsOptions& so = options_.sgns;
  Subsampler subsampler;
  subsampler.Build(vocab, so.subsample);
  const SigmoidTable sigmoid;
  Rng rng(options_.seed + 1);
  Rng fault_rng(plan.seed);
  if (resume != nullptr) {
    rng.SetState(resume->rng_states[0]);
    fault_rng.SetState(resume->rng_states[1]);
  }
  std::vector<uint32_t> kept;
  std::vector<float> grad_in(dim);
  std::vector<float*> neg_ptrs(so.negatives);

  const uint64_t planned_tokens =
      static_cast<uint64_t>(so.epochs) * corpus.num_tokens();
  // Pairs between replica-averaging rounds, scaled to the run so replicas
  // are averaged O(10) times regardless of corpus size: frequent enough that
  // hot replicas stay aligned (they receive disjoint gradient streams
  // between averaging rounds), infrequent enough that sync traffic stays
  // negligible.
  const uint64_t sync_interval = std::max<uint64_t>(8192, planned_tokens / 8);
  uint64_t processed_tokens = resume != nullptr ? resume->processed_tokens : 0;
  uint64_t pair_counter = resume != nullptr ? resume->pairs_trained : 0;
  uint64_t kept_tokens = resume != nullptr ? resume->tokens_kept : 0;
  auto lr_at = [&](uint64_t tokens) {
    return LinearDecayLr(so.learning_rate, tokens, planned_tokens);
  };
  const float lr_start = lr_at(processed_tokens);
  float lr = lr_start;
  Timer timer;

  // Sequences are visited one at a time in epoch-major slot order, the same
  // work position SgnsTrainer's queue uses; snapshots are checked at slot
  // boundaries every `interval_slots` slots.
  const PackedCorpus& packed = corpus.packed();
  const uint64_t num_seqs = packed.size();
  const uint64_t total_work = static_cast<uint64_t>(so.epochs) * num_seqs;
  const uint64_t start_work = resume != nullptr ? resume->next_work : 0;
  if (start_work > total_work) {
    return Status::InvalidArgument(
        "dist: resume point beyond this corpus/epoch plan");
  }
  const uint64_t interval = ckpt_active ? checkpoint->interval_slots : 0;
  uint64_t next_ckpt = ckpt_active ? (start_work / interval + 1) * interval : 0;
  uint64_t checkpoints_saved = 0;

  // The pair the fault plan kills at may already be behind a resume point,
  // and the kill must fire exactly once across the whole (possibly resumed)
  // run: skip it if the worker is already recorded dead.
  bool kill_pending =
      plan.kill_worker >= 0 &&
      alive[static_cast<uint32_t>(plan.kill_worker)] &&
      pair_counter < plan.kill_at_pair;
  bool stopped = false;
  Status stop_status;

  for (uint64_t work = start_work; work < total_work && !stopped; ++work) {
    const uint64_t s = work % num_seqs;
    const std::span<const uint32_t> seq = packed.seq(s);
    processed_tokens += seq.size();
    lr = lr_at(processed_tokens);
    // In the real engine every worker scans the shared input and keeps the
    // pairs whose target it owns; a hot target is processed wherever it is
    // sampled. Model that sampling worker as round-robin over sequences
    // (over the live workers once the fault plan has killed one).
    const uint32_t sampling_worker = live_ids[s % live_ids.size()];

    SubsampleSequence(seq, subsampler, rng, &kept);
    kept_tokens += kept.size();
    ForEachPair(kept, so.window, rng, [&](uint32_t target, uint32_t context) {
      if (stopped) return;  // crash fired mid-sequence
      const bool target_hot = hot_index[target] >= 0;
      const bool context_hot = hot_index[context] >= 0;
      const uint32_t proc = target_hot ? sampling_worker : owner[target];
      uint32_t executor = proc;  // worker running the TNS function
      bool lost = false;
      if (context_hot) {
        ++comm.hot_pairs;
      } else if (owner[context] == proc) {
        ++comm.local_pairs;
      } else {
        executor = owner[context];
        ++comm.remote_pairs;
        ++comm.remote_calls_per_worker[proc];
        // Request: target input vector; response: the input gradient.
        const uint64_t payload = dim * sizeof(float) + kMessageHeaderBytes;
        auto account_transfer = [&]() {
          comm.bytes_per_worker[proc] += payload;
          comm.bytes_per_worker[executor] += payload;
          comm.bytes_sent += 2 * payload;
        };
        account_transfer();
        if (plan.remote_drop_rate > 0.0) {
          // Each attempt is lost independently; retry with exponential
          // backoff until the call succeeds or the budget (retries or the
          // per-call timeout) runs out, in which case the pair is lost.
          double call_time = 0.0;
          uint32_t attempt = 0;
          while (fault_rng.Bernoulli(plan.remote_drop_rate)) {
            ++comm.remote_drops;
            if (attempt >= kMaxRetries) {
              lost = true;
              break;
            }
            const double backoff = std::min(
                kBaseBackoffS * static_cast<double>(1ull << attempt),
                kMaxBackoffS);
            call_time += backoff;
            comm.backoff_seconds += backoff;
            if (call_time > kCallTimeoutS) {
              lost = true;
              break;
            }
            ++comm.remote_retries;
            ++attempt;
            account_transfer();  // retransmission
          }
          if (lost) ++comm.pairs_lost;
          if (metrics_on && (attempt > 0 || lost)) {
            m_retries_per_call->Observe(static_cast<double>(attempt));
            m_backoff_per_call->Observe(call_time);
          }
        }
        if (!lost && plan.remote_dup_rate > 0.0 &&
            fault_rng.Bernoulli(plan.remote_dup_rate)) {
          // The response arrives twice; dedup suppresses the second
          // delivery, so only the wasted response bytes are accounted.
          ++comm.remote_duplicates;
          comm.bytes_per_worker[executor] += payload;
          comm.bytes_sent += payload;
        }
      }
      ++comm.pairs_per_worker[executor];
      ++pair_counter;

      if (!options_.dry_run && !lost) {
        const auto draw = [&] {
          return local_vocab[executor][noise[executor].Sample(rng)];
        };
        const auto collides = [target, context](uint32_t n) {
          return n == context || n == target;
        };
        for (uint32_t k = 0; k < so.negatives; ++k) {
          const uint32_t neg = ResampleNegative(draw(), draw, collides);
          neg_ptrs[k] = collides(neg) ? nullptr : output_row(neg, executor);
        }
        Zero(grad_in.data(), dim);
        ops.sgns_update_fused(input_row(target, proc), grad_in.data(),
                              output_row(context, executor), neg_ptrs.data(),
                              static_cast<int>(so.negatives), lr, dim,
                              sigmoid);
        ops.axpy(1.0f, grad_in.data(), input_row(target, proc), dim);
      }

      if (kill_pending && pair_counter >= plan.kill_at_pair) {
        kill_pending = false;
        const uint32_t dead = static_cast<uint32_t>(plan.kill_worker);
        LOG_WARN << "dist: fault plan killed worker " << dead << " at pair "
                 << pair_counter;
        ++comm.worker_failures;
        // The dead shard's rows roll back to the last checkpoint snapshot;
        // its vocabulary redistributes over the survivors and their noise
        // tables are rebuilt.
        if (!options_.dry_run) {
          for (uint32_t v = 0; v < V; ++v) {
            if (owner[v] != dead || hot_index[v] >= 0) continue;
            std::copy_n(snap_in.begin() + static_cast<size_t>(v) * dim, dim,
                        model->Input(v));
            std::copy_n(snap_out.begin() + static_cast<size_t>(v) * dim, dim,
                        model->Output(v));
          }
        }
        stop_status = apply_kill(dead);
        if (!stop_status.ok()) {
          stopped = true;
          return;
        }
        stop_status = build_noise();
        if (!stop_status.ok()) {
          stopped = true;
          return;
        }
        ++comm.worker_recoveries;
        LOG_INFO << "dist: worker " << dead
                 << " shard redistributed over " << live_ids.size()
                 << " survivors";
      }

      if (plan.crash_at_pair > 0 && pair_counter >= plan.crash_at_pair) {
        stop_status = Status::Aborted("dist: injected crash at pair " +
                                      std::to_string(pair_counter));
        stopped = true;
        return;
      }

      if (K > 0 && pair_counter % sync_interval == 0) {
        sync_replicas();
      }
    });

    // Checkpoint at slot boundaries: force a replica sync so the model
    // holds the current hot rows, then snapshot model + progress.
    if (!stopped && ckpt_active && work + 1 >= next_ckpt) {
      sync_replicas();
      TrainProgress p;
      p.next_work = work + 1;
      p.processed_tokens = processed_tokens;
      p.pairs_trained = pair_counter;
      p.tokens_kept = kept_tokens;
      p.rng_states = {rng.State(), fault_rng.State()};
      p.dead_workers = dead_workers;
      const Status saved = checkpoint->checkpointer->Save(*model, p);
      if (!saved.ok()) {
        stop_status = saved;
        stopped = true;
        break;
      }
      refresh_snapshot();
      next_ckpt = (p.next_work / interval + 1) * interval;
      ++checkpoints_saved;
      if (checkpoint->crash_after_saves != 0 &&
          checkpoints_saved >= checkpoint->crash_after_saves) {
        stop_status = Status::Aborted(
            "dist: injected crash after " +
            std::to_string(checkpoints_saved) + " checkpoint(s)");
        stopped = true;
      }
    }
  }
  if (!stopped && K > 0) sync_replicas();  // publish final hot vectors

  if (metrics_on) {
    // Unify CommStats with the registry: the 9 fault counters plus the core
    // pair/byte counters become dist.* metrics, and the per-worker load
    // vectors become distributions so imbalance shows up as p99/max spread.
    auto& reg = obs::MetricsRegistry::Global();
    reg.counter("dist.local_pairs")->Add(comm.local_pairs);
    reg.counter("dist.remote_pairs")->Add(comm.remote_pairs);
    reg.counter("dist.hot_pairs")->Add(comm.hot_pairs);
    reg.counter("dist.bytes_sent")->Add(comm.bytes_sent);
    reg.counter("dist.sync_rounds")->Add(comm.sync_rounds);
    reg.counter("dist.sync_bytes")->Add(comm.sync_bytes);
    reg.counter("dist.remote_retries")->Add(comm.remote_retries);
    reg.counter("dist.remote_drops")->Add(comm.remote_drops);
    reg.counter("dist.remote_duplicates")->Add(comm.remote_duplicates);
    reg.counter("dist.pairs_lost")->Add(comm.pairs_lost);
    reg.counter("dist.worker_failures")->Add(comm.worker_failures);
    reg.counter("dist.worker_recoveries")->Add(comm.worker_recoveries);
    reg.counter("dist.sync_delays")->Add(comm.sync_delays);
    reg.gauge("dist.backoff_seconds")->Add(comm.backoff_seconds);
    reg.gauge("dist.delay_seconds")->Add(comm.delay_seconds);
    reg.gauge("dist.remote_fraction")->Set(comm.RemoteFraction());
    reg.gauge("dist.load_imbalance")->Set(comm.LoadImbalance());
    obs::Histogram* per_pairs = reg.histogram("dist.pairs_per_worker");
    obs::Histogram* per_calls = reg.histogram("dist.remote_calls_per_worker");
    obs::Histogram* per_bytes = reg.histogram("dist.bytes_per_worker");
    for (uint32_t w = 0; w < W; ++w) {
      per_pairs->Observe(static_cast<double>(comm.pairs_per_worker[w]));
      per_calls->Observe(static_cast<double>(comm.remote_calls_per_worker[w]));
      per_bytes->Observe(static_cast<double>(comm.bytes_per_worker[w]));
    }
    // The distributed engine replaces SgnsTrainer wholesale, so it also
    // owns the train.* progress metrics for this run.
    const double elapsed = timer.ElapsedSeconds();
    reg.counter("train.pairs")->Add(pair_counter);
    reg.counter("train.tokens")->Add(processed_tokens);
    reg.gauge("train.lr")->Set(lr_at(processed_tokens));
    reg.gauge("train.seconds")->Set(elapsed);
    reg.gauge("train.pairs_per_sec")
        ->Set(elapsed > 0 ? static_cast<double>(pair_counter) / elapsed : 0.0);
  }

  if (result != nullptr) {
    result->comm = comm;
    result->train.pairs_trained = pair_counter;
    result->train.tokens_seen = processed_tokens;
    result->train.tokens_kept = kept_tokens;
    result->train.seconds = timer.ElapsedSeconds();
    result->train.lr_start = lr_start;
    result->train.lr_end = lr_at(processed_tokens);
    result->train.checkpoints_saved = checkpoints_saved;
  }
  if (stopped && !stop_status.ok()) return stop_status;
  return Status::OK();
}

}  // namespace sisg
