// Micro-benchmarks (google-benchmark) of the engine's hot kernels: the
// dense math, alias sampling, the sigmoid LUT, pair generation and the full
// SGNS step — the per-pair costs that the cluster cost model abstracts —
// plus one whole SGNS epoch at 1/2/4 threads.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/alias_table.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/top_k.h"
#include "corpus/corpus.h"
#include "datagen/dataset.h"
#include "sgns/trainer.h"
#include "sgns/window.h"

namespace sisg {
namespace {

void BM_Dot(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  std::vector<float> a(dim, 0.5f), b(dim, 0.25f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_Dot)->Arg(64)->Arg(128)->Arg(256);

void BM_DotSimd(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const SimdOps& ops = GetSimdOps();
  std::vector<float> a(dim, 0.5f), b(dim, 0.25f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.dot(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * dim);
  state.SetLabel(SimdLevelName(ops.level));
}
BENCHMARK(BM_DotSimd)->Arg(64)->Arg(128)->Arg(256);

void BM_Axpy(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  std::vector<float> x(dim, 0.5f), y(dim, 0.25f);
  for (auto _ : state) {
    Axpy(0.01f, x.data(), y.data(), dim);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_Axpy)->Arg(64)->Arg(128);

void BM_AxpySimd(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const SimdOps& ops = GetSimdOps();
  std::vector<float> x(dim, 0.5f), y(dim, 0.25f);
  for (auto _ : state) {
    ops.axpy(0.01f, x.data(), y.data(), dim);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * dim);
  state.SetLabel(SimdLevelName(ops.level));
}
BENCHMARK(BM_AxpySimd)->Arg(64)->Arg(128);

void BM_SigmoidTable(benchmark::State& state) {
  const SigmoidTable table;
  Rng rng(1);
  std::vector<float> xs(1024);
  for (auto& x : xs) x = rng.UniformFloat() * 12.0f - 6.0f;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sigmoid(xs[i++ & 1023]));
  }
}
BENCHMARK(BM_SigmoidTable);

void BM_AliasSample(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) w[i] = 1.0 / std::pow(i + 1.0, 0.75);
  AliasTable table;
  SISG_CHECK_OK(table.Build(w));
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(rng));
  }
}
BENCHMARK(BM_AliasSample)->Arg(1000)->Arg(100000)->Arg(1000000);

/// One full SGNS pair step over aligned rows. `Variant` selects the runtime
/// dispatch (the production path) or the scalar reference (the seed code
/// path, kept as the comparison baseline).
enum class KernelVariant { kDispatched, kScalar };

void SgnsPairUpdateBench(benchmark::State& state, KernelVariant variant) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const int negatives = static_cast<int>(state.range(1));
  const uint32_t rows = 4096;
  const size_t stride = AlignedRowStride(dim);
  AlignedFloatVector in(rows * stride), out(rows * stride);
  Rng rng(3);
  for (auto& x : in) x = rng.UniformFloat() * 0.01f;
  for (auto& x : out) x = rng.UniformFloat() * 0.01f;
  std::vector<float> grad(dim);
  std::vector<float*> negs(static_cast<size_t>(negatives));
  const SigmoidTable sigmoid;
  const SimdOps& ops = GetSimdOps();
  for (auto _ : state) {
    const uint32_t t = static_cast<uint32_t>(rng.UniformU64(rows));
    const uint32_t c = static_cast<uint32_t>(rng.UniformU64(rows));
    for (int k = 0; k < negatives; ++k) {
      negs[static_cast<size_t>(k)] =
          out.data() + rng.UniformU64(rows) * stride;
    }
    Zero(grad.data(), dim);
    if (variant == KernelVariant::kDispatched) {
      ops.sgns_update_fused(in.data() + t * stride, grad.data(),
                            out.data() + c * stride, negs.data(), negatives,
                            0.025f, dim, sigmoid);
      ops.axpy(1.0f, grad.data(), in.data() + t * stride, dim);
    } else {
      simd_scalar::SgnsUpdateFused(in.data() + t * stride, grad.data(),
                                   out.data() + c * stride, negs.data(),
                                   negatives, 0.025f, dim, sigmoid);
      Axpy(1.0f, grad.data(), in.data() + t * stride, dim);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flops/pair"] = 6.0 * dim * (1 + negatives) + 2.0 * dim;
  state.SetLabel(variant == KernelVariant::kDispatched
                     ? SimdLevelName(ops.level)
                     : "scalar-ref");
}

void BM_SgnsPairUpdate(benchmark::State& state) {
  SgnsPairUpdateBench(state, KernelVariant::kDispatched);
}
BENCHMARK(BM_SgnsPairUpdate)
    ->Args({64, 10})
    ->Args({64, 20})
    ->Args({128, 5})
    ->Args({128, 20});

void BM_SgnsPairUpdateScalar(benchmark::State& state) {
  SgnsPairUpdateBench(state, KernelVariant::kScalar);
}
BENCHMARK(BM_SgnsPairUpdateScalar)->Args({128, 5})->Args({128, 20});

void BM_ForEachPair(benchmark::State& state) {
  WindowOptions opts;
  opts.window = static_cast<uint32_t>(state.range(0));
  opts.directional = state.range(1) != 0;
  Rng rng(4);
  std::vector<uint32_t> seq(64);
  for (auto& v : seq) v = static_cast<uint32_t>(rng.UniformU64(10000));
  for (auto _ : state) {
    uint64_t pairs = 0;
    ForEachPair(seq, opts, rng, [&](uint32_t, uint32_t) { ++pairs; });
    benchmark::DoNotOptimize(pairs);
  }
}
BENCHMARK(BM_ForEachPair)->Args({4, 0})->Args({4, 1})->Args({8, 0});

void BM_TopKSelect(benchmark::State& state) {
  const uint32_t n = 100000;
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<float> scores(n);
  for (auto& s : scores) s = rng.UniformFloat();
  for (auto _ : state) {
    TopKSelector sel(k);
    for (uint32_t i = 0; i < n; ++i) sel.Push(scores[i], i);
    benchmark::DoNotOptimize(sel.Take());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TopKSelect)->Arg(20)->Arg(200);

/// The daily-retrain corpus shape: 12k items, 50k sessions, enriched with
/// item SI and user types (SISG-F-U-D). The enrichment makes it skewed: a
/// few hundred SI and user-type tokens carry most of the tokens.
const Corpus& SkewedCorpus() {
  static const SyntheticDataset ds = [] {
    DatasetSpec spec;
    spec.catalog.num_items = 12000;
    spec.num_train_sessions = 50000;
    spec.num_test_sessions = 0;
    auto d = SyntheticDataset::Generate(spec);
    SISG_CHECK(d.ok());
    return std::move(d).value();
  }();
  static const TokenSpace ts = TokenSpace::Create(&ds.catalog(), &ds.users());
  static const Corpus corpus = [] {
    Corpus c;
    VectorSessionSource sessions(&ds.train_sessions());
    SISG_CHECK(
        c.BuildFromSource(&sessions, ts, ds.catalog(), CorpusOptions{}).ok());
    return c;
  }();
  return corpus;
}

/// One SGNS epoch at the daily retrain's settings, in pairs/s. With more
/// than one thread each worker trains the hottest rows on private replicas;
/// the 1-thread row has none by construction and is the live baseline.
void BM_SgnsEpoch(benchmark::State& state) {
  const Corpus& corpus = SkewedCorpus();
  SgnsOptions opts;
  opts.dim = 64;
  opts.epochs = 1;
  opts.negatives = 5;
  opts.window.window *= 2;  // SisgPipeline's token window with SI
  opts.window.directional = true;
  opts.num_threads = static_cast<uint32_t>(state.range(0));
  const SgnsTrainer trainer(opts);
  uint64_t pairs = 0;
  for (auto _ : state) {
    EmbeddingModel model;
    TrainStats stats;
    SISG_CHECK(trainer.Train(corpus, &model, &stats).ok());
    benchmark::DoNotOptimize(model.Input(0));
    pairs += stats.pairs_trained;
  }
  state.counters["pairs/s"] = benchmark::Counter(
      static_cast<double>(pairs), benchmark::Counter::kIsRate);
  state.counters["replica_rows"] =
      static_cast<double>(trainer.ReplicaRows(corpus.vocab()));
}
BENCHMARK(BM_SgnsEpoch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace sisg

BENCHMARK_MAIN();
