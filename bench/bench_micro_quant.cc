// Micro-benchmarks (google-benchmark) of the quantized serving path against
// its fp32 baselines: the int8 top-K scan kernel vs the fp32 kernel, the
// end-to-end engine query in both precisions, and IVF-PQ ADC vs fp32 IVF.
// Each iteration is one query, so the JSON "real_time" is ns/query, and
// those benchmarks export a bytes_per_query counter — the memory-traffic
// axis the quantization tiers exist to shrink (see run_benches.sh, which
// emits BENCH_quant.json, and EXPERIMENTS.md "Quantization microbench").
// The batched rows (BM_ScanI8Packed: one batch of queries per iteration)
// report ns_per_query, and the int8 candidate-table rows (one whole table per
// iteration) carry their baseline in the same binary. The int8 scan rows also
// come in an Avx2 form that runs the AVX2 table whatever the host
// dispatches, the live baseline of the AVX-512 VNNI kernel on hosts that
// have it.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/logging.h"
#include "common/quant.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/top_k.h"
#include "core/candidate_table.h"
#include "core/ivf_index.h"
#include "core/matching_engine.h"
#include "core/pq.h"
#include "obs/metrics.h"

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

/// The fp32 baseline kernel: one TopKScan over the aligned padded block —
/// identical to BM_BruteForceBlocked in bench_micro_retrieval, repeated here
/// so BENCH_quant.json carries both sides of the comparison.
void BM_ScanFp32(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  const auto data = CorpusData(kNumItems, dim, 41);
  const size_t stride = AlignedRowStride(dim);
  AlignedFloatVector block(static_cast<size_t>(kNumItems) * stride, 0.0f);
  for (uint32_t r = 0; r < kNumItems; ++r) {
    std::copy_n(data.data() + static_cast<size_t>(r) * dim, dim,
                block.data() + static_cast<size_t>(r) * stride);
  }
  const SimdOps& ops = GetSimdOps();
  Rng rng(42);
  for (auto _ : state) {
    const float* q =
        data.data() + rng.UniformU64(kNumItems) * static_cast<size_t>(dim);
    TopKSelector sel(kTopK);
    ops.top_k_scan(q, block.data(), stride, kNumItems, dim, nullptr,
                   UINT32_MAX, &sel);
    benchmark::DoNotOptimize(sel.Take());
  }
  state.SetItemsProcessed(state.iterations() * kNumItems);
  state.counters["bytes_per_query"] = static_cast<double>(
      static_cast<uint64_t>(kNumItems) * stride * sizeof(float));
  state.SetLabel(SimdLevelName(ops.level));
}
BENCHMARK(BM_ScanFp32)->Arg(64)->Arg(128);

/// The AVX2 table for the Avx2 baseline rows; nullptr (the row is skipped)
/// on a binary or host without it.
const SimdOps* Avx2Ops() {
  return CpuSupportsAvx2() ? simd_avx2::Ops() : nullptr;
}

/// The int8 scan kernel: per-query symmetric quantization plus one
/// single-query top_k_scan_i8 over the 1-byte code block — 4x fewer bytes
/// streamed than the fp32 scan at the same dim.
void RunScanInt8(benchmark::State& state, const SimdOps* table) {
  if (table == nullptr) {
    state.SkipWithError("dispatch level not available on this host");
    return;
  }
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  const auto data = CorpusData(kNumItems, dim, 41);
  Int8Arena arena;
  SISG_CHECK_OK(arena.BuildFromRows(data.data(), kNumItems, dim, dim));
  const SimdOps& ops = *table;
  Rng rng(42);
  std::vector<int8_t> qcodes(dim);
  for (auto _ : state) {
    const float* q =
        data.data() + rng.UniformU64(kNumItems) * static_cast<size_t>(dim);
    const Int8Query iq = QuantizeQueryInt8(q, dim, qcodes.data());
    TopKSelector sel(kTopK);
    TopKSelector* sels[] = {&sel};
    ops.top_k_scan_i8(&iq, 1, arena.codes(), dim, arena.scales(),
                      arena.mins(), kNumItems, 0, sels);
    benchmark::DoNotOptimize(sel.Take());
  }
  state.SetItemsProcessed(state.iterations() * kNumItems);
  state.counters["bytes_per_query"] =
      static_cast<double>(arena.code_bytes());
  state.SetLabel(SimdLevelName(ops.level));
}

void BM_ScanInt8(benchmark::State& state) {
  RunScanInt8(state, &GetSimdOps());
}
BENCHMARK(BM_ScanInt8)->Arg(64)->Arg(128);

void BM_ScanInt8Avx2(benchmark::State& state) {
  RunScanInt8(state, Avx2Ops());
}
BENCHMARK(BM_ScanInt8Avx2)->Arg(64)->Arg(128);

/// The batched int8 scan: B prepared queries against the whole code block
/// (shortlist 81, the engine's depth at k = 20) in one top_k_scan_i8 call
/// over the packed group layout, the engine's chunk step at full length.
/// Time is per batch; the ns_per_query counter divides it by B so rows
/// compare across batch sizes.
void RunScanI8Batch(benchmark::State& state, const SimdOps* table) {
  if (table == nullptr) {
    state.SkipWithError("dispatch level not available on this host");
    return;
  }
  constexpr uint32_t kDim = 64;
  constexpr uint32_t kShortlist = 81;
  const auto batch = static_cast<size_t>(state.range(0));
  const auto data = CorpusData(kNumItems, kDim, 41);
  Int8Arena arena;
  SISG_CHECK_OK(arena.BuildFromRows(data.data(), kNumItems, kDim, kDim));
  const SimdOps& ops = *table;
  Rng rng(42);
  std::vector<int8_t> qcodes(batch * kDim);
  std::vector<Int8Query> iq(batch);
  std::vector<TopKSelector*> ptrs(batch);
  for (auto _ : state) {
    std::vector<TopKSelector> sels;
    sels.reserve(batch);
    for (size_t j = 0; j < batch; ++j) {
      const float* q =
          data.data() + rng.UniformU64(kNumItems) * static_cast<size_t>(kDim);
      iq[j] = QuantizeQueryInt8(q, kDim, qcodes.data() + j * kDim);
      sels.emplace_back(kShortlist);
      ptrs[j] = &sels[j];
    }
    ops.top_k_scan_i8(iq.data(), batch, arena.codes(), kDim, arena.scales(),
                      arena.mins(), kNumItems, 0, ptrs.data());
    for (TopKSelector& sel : sels) benchmark::DoNotOptimize(sel.Take());
  }
  state.SetItemsProcessed(state.iterations() * batch * kNumItems);
  state.counters["ns_per_query"] = benchmark::Counter(
      static_cast<double>(state.iterations() * batch),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(SimdLevelName(ops.level));
}

void BM_ScanI8Packed(benchmark::State& state) {
  RunScanI8Batch(state, &GetSimdOps());
}
BENCHMARK(BM_ScanI8Packed)
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_ScanI8PackedAvx2(benchmark::State& state) {
  RunScanI8Batch(state, Avx2Ops());
}
BENCHMARK(BM_ScanI8PackedAvx2)
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

/// The production candidate table at train_publish's shape: 12k items,
/// d = 64, directional scores, int8 shortlist + fp32 rerank, k = 20.
/// BM_CandidateTableInt8 builds it the shipped way (CandidateTable::Build:
/// blocks of items through the coalesced chunk scan); the PerItem row is the
/// live baseline in the same binary, one pool task per item calling Query()
/// the way the table was built before. Both produce identical tables.
constexpr uint32_t kTableItems = 12000;
constexpr uint32_t kTableDim = 64;
constexpr uint32_t kTableK = 20;

MatchingEngine BuildTableEngine() {
  MatchingEngine engine;
  SISG_CHECK_OK(engine.Build(CorpusData(kTableItems, kTableDim, 47),
                             CorpusData(kTableItems, kTableDim, 48),
                             kTableItems, kTableDim,
                             SimilarityMode::kDirectionalInOut));
  SISG_CHECK_OK(engine.EnableInt8());
  return engine;
}

void BM_CandidateTableInt8(benchmark::State& state) {
  const auto threads = static_cast<uint32_t>(state.range(0));
  const MatchingEngine engine = BuildTableEngine();
  for (auto _ : state) {
    CandidateTable table;
    SISG_CHECK_OK(table.Build(engine, kTableK, threads));
    benchmark::DoNotOptimize(table.Get(0).data());
  }
  state.SetItemsProcessed(state.iterations() * kTableItems);
  state.SetLabel(SimdLevelName(GetSimdOps().level));
}
BENCHMARK(BM_CandidateTableInt8)
    ->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CandidateTableInt8PerItem(benchmark::State& state) {
  const auto threads = static_cast<uint32_t>(state.range(0));
  const MatchingEngine engine = BuildTableEngine();
  for (auto _ : state) {
    std::vector<std::vector<ScoredId>> table(kTableItems);
    ThreadPool pool(threads);
    pool.ParallelFor(kTableItems, [&](size_t i) {
      table[i] = engine.Query(static_cast<uint32_t>(i), kTableK);
    });
    benchmark::DoNotOptimize(table[0].data());
  }
  state.SetItemsProcessed(state.iterations() * kTableItems);
  state.SetLabel(SimdLevelName(GetSimdOps().level));
}
BENCHMARK(BM_CandidateTableInt8PerItem)
    ->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Runs `engine.Query` under enabled metrics and reports the measured
/// serve.bytes_scanned per query (the production counter, so shortlist
/// rerank traffic is included for the quantized paths).
void RunEngineQueries(benchmark::State& state, const MatchingEngine& engine) {
  const bool was_enabled = obs::MetricsEnabled();
  obs::EnableMetrics(true);
  obs::Counter* const bytes =
      obs::MetricsRegistry::Global().counter("serve.bytes_scanned");
  const uint64_t before = bytes->Value();
  Rng rng(43);
  for (auto _ : state) {
    const uint32_t item = static_cast<uint32_t>(rng.UniformU64(kNumItems));
    benchmark::DoNotOptimize(engine.Query(item, kTopK));
  }
  state.SetItemsProcessed(state.iterations() * kNumItems);
  state.counters["bytes_per_query"] =
      static_cast<double>(bytes->Value() - before) /
      static_cast<double>(state.iterations());
  state.SetLabel(SimdLevelName(GetSimdOps().level));
  obs::EnableMetrics(was_enabled);
}

void BM_EngineQueryFp32(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  MatchingEngine engine;
  SISG_CHECK_OK(engine.Build(CorpusData(kNumItems, dim, 44), {}, kNumItems,
                             dim, SimilarityMode::kCosineInput));
  RunEngineQueries(state, engine);
}
BENCHMARK(BM_EngineQueryFp32)->Arg(128);

void BM_EngineQueryInt8(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  MatchingEngine engine;
  SISG_CHECK_OK(engine.Build(CorpusData(kNumItems, dim, 44), {}, kNumItems,
                             dim, SimilarityMode::kCosineInput));
  SISG_CHECK_OK(engine.EnableInt8());
  RunEngineQueries(state, engine);
}
BENCHMARK(BM_EngineQueryInt8)->Arg(128);

/// IVF baseline vs IVF-PQ ADC: same index geometry, same probed lists; the
/// PQ path streams m-byte codes instead of fp32 rows, then exactly
/// re-scores the shortlist. bytes_per_query counts candidate bytes scored
/// (codes or rows, plus rerank rows), not the per-query ADC table.
void RunIvfQueries(benchmark::State& state, const IvfIndex& index,
                   const std::vector<float>& data, uint32_t dim) {
  const bool was_enabled = obs::MetricsEnabled();
  obs::EnableMetrics(true);
  obs::Counter* const bytes =
      obs::MetricsRegistry::Global().counter("serve.bytes_scanned");
  const uint64_t before = bytes->Value();
  Rng rng(45);
  for (auto _ : state) {
    const float* q =
        data.data() + rng.UniformU64(kNumItems) * static_cast<size_t>(dim);
    benchmark::DoNotOptimize(index.Query(q, kTopK));
  }
  state.counters["bytes_per_query"] =
      static_cast<double>(bytes->Value() - before) /
      static_cast<double>(state.iterations());
  state.SetLabel(SimdLevelName(GetSimdOps().level));
  obs::EnableMetrics(was_enabled);
}

IvfIndex BuildIvf(const std::vector<float>& data, uint32_t dim) {
  IvfIndex index;
  IvfOptions opts;
  opts.kmeans.num_clusters = 128;
  opts.kmeans.iterations = 6;
  opts.nprobe = 12;
  SISG_CHECK_OK(index.Build(data.data(), kNumItems, dim, opts));
  return index;
}

void BM_IvfQueryFp32(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  const auto data = CorpusData(kNumItems, dim, 46);
  const IvfIndex index = BuildIvf(data, dim);
  RunIvfQueries(state, index, data, dim);
}
BENCHMARK(BM_IvfQueryFp32)->Arg(128);

void BM_IvfQueryPqAdc(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  const auto data = CorpusData(kNumItems, dim, 46);
  IvfIndex index = BuildIvf(data, dim);
  PqOptions pq;
  pq.m = 16;  // dsub = 8 at dim 128: 32x code compression per row
  SISG_CHECK_OK(index.EnablePq(pq));
  RunIvfQueries(state, index, data, dim);
}
BENCHMARK(BM_IvfQueryPqAdc)->Arg(128);

}  // namespace
}  // namespace sisg

BENCHMARK_MAIN();
