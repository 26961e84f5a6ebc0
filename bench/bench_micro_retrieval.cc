// Micro-benchmarks (google-benchmark) of the serving-side hot path: the
// brute-force top-K scan (pre-change scalar loop vs the SIMD-blocked
// kernels), the batched dot kernel itself, and end-to-end IVF / HNSW
// queries. Each iteration is one query, so the JSON "real_time" is ns/query
// (see run_benches.sh, which emits BENCH_retrieval.json).

#include <benchmark/benchmark.h>

#include <vector>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/top_k.h"
#include "core/hnsw_index.h"
#include "core/ivf_index.h"
#include "core/matching_engine.h"

namespace sisg {
namespace {

constexpr uint32_t kNumItems = 20000;
constexpr uint32_t kTopK = 10;

std::vector<float> CorpusData(uint32_t n, uint32_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(n) * dim);
  for (auto& x : data) x = rng.UniformFloat() * 2.0f - 1.0f;
  return data;
}

/// The pre-change retrieval loop, pinned as the comparison baseline: one
/// scalar Dot and one selector push per candidate row, unpadded matrix.
void BM_BruteForceScalarRef(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  const auto data = CorpusData(kNumItems, dim, 21);
  Rng rng(22);
  for (auto _ : state) {
    const float* q =
        data.data() + rng.UniformU64(kNumItems) * static_cast<size_t>(dim);
    TopKSelector sel(kTopK);
    for (uint32_t c = 0; c < kNumItems; ++c) {
      sel.Push(Dot(q, data.data() + static_cast<size_t>(c) * dim, dim), c);
    }
    benchmark::DoNotOptimize(sel.Take());
  }
  state.SetItemsProcessed(state.iterations() * kNumItems);
  state.SetLabel("scalar-ref");
}
BENCHMARK(BM_BruteForceScalarRef)->Arg(64)->Arg(128);

/// The blocked path: one TopKScan over an aligned padded-stride block via
/// the dispatched kernels — exactly what MatchingEngine::Query issues.
void BM_BruteForceBlocked(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  const auto data = CorpusData(kNumItems, dim, 21);
  const size_t stride = AlignedRowStride(dim);
  AlignedFloatVector block(static_cast<size_t>(kNumItems) * stride, 0.0f);
  for (uint32_t r = 0; r < kNumItems; ++r) {
    std::copy_n(data.data() + static_cast<size_t>(r) * dim, dim,
                block.data() + static_cast<size_t>(r) * stride);
  }
  const SimdOps& ops = GetSimdOps();
  Rng rng(22);
  for (auto _ : state) {
    const float* q =
        data.data() + rng.UniformU64(kNumItems) * static_cast<size_t>(dim);
    TopKSelector sel(kTopK);
    ops.top_k_scan(q, block.data(), stride, kNumItems, dim, nullptr,
                   UINT32_MAX, &sel);
    benchmark::DoNotOptimize(sel.Take());
  }
  state.SetItemsProcessed(state.iterations() * kNumItems);
  state.SetLabel(SimdLevelName(ops.level));
}
BENCHMARK(BM_BruteForceBlocked)->Arg(64)->Arg(128);

void BM_EngineQuery(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  MatchingEngine engine;
  SISG_CHECK_OK(engine.Build(CorpusData(kNumItems, dim, 24), {}, kNumItems,
                             dim, SimilarityMode::kCosineInput));
  Rng rng(25);
  for (auto _ : state) {
    const uint32_t item = static_cast<uint32_t>(rng.UniformU64(kNumItems));
    benchmark::DoNotOptimize(engine.Query(item, kTopK));
  }
  state.SetItemsProcessed(state.iterations() * kNumItems);
  state.SetLabel(SimdLevelName(GetSimdOps().level));
}
BENCHMARK(BM_EngineQuery)->Arg(128);

void BM_IvfQuery(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  const auto data = CorpusData(kNumItems, dim, 26);
  IvfIndex index;
  IvfOptions opts;
  opts.kmeans.num_clusters = 128;
  opts.kmeans.iterations = 6;
  opts.nprobe = 12;
  SISG_CHECK_OK(index.Build(data.data(), kNumItems, dim, opts));
  Rng rng(27);
  for (auto _ : state) {
    const float* q =
        data.data() + rng.UniformU64(kNumItems) * static_cast<size_t>(dim);
    benchmark::DoNotOptimize(index.Query(q, kTopK));
  }
  state.SetLabel(SimdLevelName(GetSimdOps().level));
}
BENCHMARK(BM_IvfQuery)->Arg(128);

void BM_HnswQuery(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  // Normalized rows: the engine's serving setup, and the regime HNSW's
  // greedy inner-product search is designed for.
  auto data = CorpusData(kNumItems, dim, 28);
  for (uint32_t r = 0; r < kNumItems; ++r) {
    float* row = data.data() + static_cast<size_t>(r) * dim;
    Scale(1.0f / L2Norm(row, dim), row, dim);
  }
  HnswIndex index;
  HnswOptions opts;
  opts.ef_search = 64;
  SISG_CHECK_OK(index.Build(data.data(), kNumItems, dim, opts));
  Rng rng(29);
  for (auto _ : state) {
    const float* q =
        data.data() + rng.UniformU64(kNumItems) * static_cast<size_t>(dim);
    benchmark::DoNotOptimize(index.Query(q, kTopK));
  }
  state.SetLabel(SimdLevelName(GetSimdOps().level));
}
BENCHMARK(BM_HnswQuery)->Arg(128);

/// Batched multi-query serving throughput (items/queries aligned with the
/// CandidateTable build and the sisg_query --threads path).
void BM_EngineQueryBatch(benchmark::State& state) {
  const uint32_t dim = 128;
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  const uint32_t batch = 64;
  MatchingEngine engine;
  SISG_CHECK_OK(engine.Build(CorpusData(kNumItems, dim, 30), {}, kNumItems,
                             dim, SimilarityMode::kCosineInput));
  Rng rng(31);
  std::vector<uint32_t> items(batch);
  for (auto& it : items) it = static_cast<uint32_t>(rng.UniformU64(kNumItems));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.QueryBatch(items, kTopK, threads));
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.SetLabel(SimdLevelName(GetSimdOps().level));
}
BENCHMARK(BM_EngineQueryBatch)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace
}  // namespace sisg

BENCHMARK_MAIN();
