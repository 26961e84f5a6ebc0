// Micro-benchmarks (google-benchmark) of the hot-path flat hash layer
// (common/flat_hash.h) against the std::unordered_* containers they
// replaced, plus the end-to-end row the adoption moves, HNSW QueryBatch
// (per-query visited set -> per-thread EpochVisitedSet), and the artifact
// CRC-32 (the pre-dispatch byte-at-a-time loop as the live baseline vs the
// dispatched kernel). Emits BENCH_hash.json from run_benches.sh; the >= 2x
// acceptance gate lives on the mixed insert/lookup rows (EXPERIMENTS.md
// "Hash microbench"), the CRC rows feed "Artifact checksum".

#include <benchmark/benchmark.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_hash.h"
#include "common/io_util.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "core/hnsw_index.h"

namespace sisg {
namespace {

constexpr size_t kKeys = 1 << 17;  // 128k distinct keys, out-of-cache table

std::vector<uint64_t> MakeKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.UniformU64(UINT64_MAX);
  return keys;
}

// ----------------------------- inserts -----------------------------

void BM_FlatMapInsert(benchmark::State& state) {
  const auto keys = MakeKeys(kKeys, 1);
  for (auto _ : state) {
    FlatHashMap<uint64_t, uint64_t> m;
    m.Reserve(kKeys);
    for (uint64_t k : keys) m[k] += k;
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_FlatMapInsert)->Unit(benchmark::kMillisecond);

void BM_StdMapInsert(benchmark::State& state) {
  const auto keys = MakeKeys(kKeys, 1);
  for (auto _ : state) {
    std::unordered_map<uint64_t, uint64_t> m;
    m.reserve(kKeys);
    for (uint64_t k : keys) m[k] += k;
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_StdMapInsert)->Unit(benchmark::kMillisecond);

// ----------------------------- lookups -----------------------------
// 50% hits / 50% misses: the visited-set and co-occurrence regime, and the
// case where std's bucket chase hurts most (a miss walks a chain).

template <typename MapT>
void LookupLoop(benchmark::State& state, MapT& m,
                const std::vector<uint64_t>& probes) {
  for (auto _ : state) {
    uint64_t hits = 0;
    for (uint64_t k : probes) hits += m.count(k);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * probes.size());
}

std::vector<uint64_t> MixedProbes(const std::vector<uint64_t>& present) {
  // Even index -> present key, odd -> fresh (absent) key.
  Rng rng(7);
  std::vector<uint64_t> probes(present.size() * 2);
  for (size_t i = 0; i < probes.size(); ++i) {
    probes[i] = (i % 2 == 0) ? present[rng.UniformU64(present.size())]
                             : MakeKeys(1, 1000 + i)[0];
  }
  return probes;
}

void BM_FlatMapLookup(benchmark::State& state) {
  const auto keys = MakeKeys(kKeys, 1);
  FlatHashMap<uint64_t, uint64_t> m(kKeys);
  for (uint64_t k : keys) m[k] = k;
  const auto probes = MixedProbes(keys);
  for (auto _ : state) {
    uint64_t hits = 0;
    for (uint64_t k : probes) hits += m.Contains(k);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * probes.size());
}
BENCHMARK(BM_FlatMapLookup)->Unit(benchmark::kMillisecond);

void BM_StdMapLookup(benchmark::State& state) {
  const auto keys = MakeKeys(kKeys, 1);
  std::unordered_map<uint64_t, uint64_t> m(kKeys);
  for (uint64_t k : keys) m[k] = k;
  const auto probes = MixedProbes(keys);
  LookupLoop(state, m, probes);
}
BENCHMARK(BM_StdMapLookup)->Unit(benchmark::kMillisecond);

// ------------------------- mixed + erase churn -------------------------
// The acceptance-gate workload: interleaved insert / lookup / erase with a
// live backward-shift deletion load (tombstone-free tables keep probe
// chains short under exactly this churn).

void BM_FlatMapMixed(benchmark::State& state) {
  const auto keys = MakeKeys(kKeys, 3);
  for (auto _ : state) {
    FlatHashMap<uint64_t, uint64_t> m;
    m.Reserve(kKeys / 2);
    uint64_t acc = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      m[keys[i]] = i;
      acc += m.Contains(keys[(i * 7 + 1) % keys.size()]);
      if (i % 3 == 0) m.Erase(keys[(i * 5 + 2) % keys.size()]);
    }
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_FlatMapMixed)->Unit(benchmark::kMillisecond);

void BM_StdMapMixed(benchmark::State& state) {
  const auto keys = MakeKeys(kKeys, 3);
  for (auto _ : state) {
    std::unordered_map<uint64_t, uint64_t> m;
    m.reserve(kKeys / 2);
    uint64_t acc = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      m[keys[i]] = i;
      acc += m.count(keys[(i * 7 + 1) % keys.size()]);
      if (i % 3 == 0) m.erase(keys[(i * 5 + 2) % keys.size()]);
    }
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_StdMapMixed)->Unit(benchmark::kMillisecond);

// ----------------------- visited-set traversal -----------------------
// A synthetic beam walk over a random regular graph, isolating exactly what
// HNSW SearchLayer asks of its visited set: fresh-set-per-query vs a reused
// epoch-stamped array.

struct SynthGraph {
  static constexpr uint32_t kNodes = 20000;
  static constexpr uint32_t kDegree = 16;
  std::vector<uint32_t> nbrs;  // kNodes x kDegree
};

const SynthGraph& Graph() {
  static const SynthGraph g = [] {
    SynthGraph g;
    Rng rng(17);
    g.nbrs.resize(size_t{SynthGraph::kNodes} * SynthGraph::kDegree);
    for (auto& n : g.nbrs) {
      n = static_cast<uint32_t>(rng.UniformU64(SynthGraph::kNodes));
    }
    return g;
  }();
  return g;
}

template <typename VisitFn>
uint64_t BeamWalk(uint32_t start, uint32_t steps, VisitFn&& visit) {
  // Breadth-ish walk: expand the frontier node's neighbors, take the last
  // unvisited one as the next frontier. Mirrors the membership-test duty
  // cycle of SearchLayer without the scoring work.
  uint64_t seen = 0;
  uint32_t cur = start;
  const auto& g = Graph();
  for (uint32_t s = 0; s < steps; ++s) {
    uint32_t next = cur;
    for (uint32_t j = 0; j < SynthGraph::kDegree; ++j) {
      const uint32_t n = g.nbrs[size_t{cur} * SynthGraph::kDegree + j];
      if (visit(n)) {
        ++seen;
        next = n;
      }
    }
    if (next == cur) break;
    cur = next;
  }
  return seen;
}

void BM_BeamVisitedStdSet(benchmark::State& state) {
  Rng rng(19);
  for (auto _ : state) {
    std::unordered_set<uint32_t> visited;
    const uint64_t seen = BeamWalk(
        static_cast<uint32_t>(rng.UniformU64(SynthGraph::kNodes)), 256,
        [&](uint32_t n) { return visited.insert(n).second; });
    benchmark::DoNotOptimize(seen);
  }
}
BENCHMARK(BM_BeamVisitedStdSet);

void BM_BeamVisitedFlatSet(benchmark::State& state) {
  Rng rng(19);
  for (auto _ : state) {
    FlatHashSet<uint32_t> visited;
    const uint64_t seen = BeamWalk(
        static_cast<uint32_t>(rng.UniformU64(SynthGraph::kNodes)), 256,
        [&](uint32_t n) { return visited.Insert(n); });
    benchmark::DoNotOptimize(seen);
  }
}
BENCHMARK(BM_BeamVisitedFlatSet);

void BM_BeamVisitedEpoch(benchmark::State& state) {
  Rng rng(19);
  EpochVisitedSet visited;
  for (auto _ : state) {
    visited.Reset(SynthGraph::kNodes);
    const uint64_t seen = BeamWalk(
        static_cast<uint32_t>(rng.UniformU64(SynthGraph::kNodes)), 256,
        [&](uint32_t n) { return visited.TestAndSet(n); });
    benchmark::DoNotOptimize(seen);
  }
}
BENCHMARK(BM_BeamVisitedEpoch);

// --------------------------- end to end ---------------------------
// The adopted paths themselves. BM_HnswQueryBatch is the serving-path row
// (the visited-set swap feeds serve.hnsw_visited_nodes); compare against
// the pre-adoption number recorded in EXPERIMENTS.md.

void BM_HnswQueryBatch(benchmark::State& state) {
  constexpr uint32_t kItems = 60000, kDim = 64, kQueries = 512;
  static const std::vector<float> data = [] {
    Rng rng(23);
    std::vector<float> d(size_t{kItems} * kDim);
    for (auto& x : d) x = rng.UniformFloat() - 0.5f;
    for (uint32_t r = 0; r < kItems; ++r) {
      float* row = d.data() + size_t{r} * kDim;
      Scale(1.0f / L2Norm(row, kDim), row, kDim);
    }
    return d;
  }();
  static const HnswIndex& index = []() -> const HnswIndex& {
    static HnswIndex idx;
    HnswOptions opts;
    opts.ef_search = 64;
    SISG_CHECK_OK(idx.Build(data.data(), kItems, kDim, opts));
    return idx;
  }();
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  std::vector<std::vector<ScoredId>> out;
  for (auto _ : state) {
    SISG_CHECK_OK(
        index.QueryBatch(data.data(), kQueries, kDim, 10, threads, &out));
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * kQueries);
}
BENCHMARK(BM_HnswQueryBatch)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ------------------------------ CRC-32 ------------------------------
// Artifact checksum throughput at page (4 KB), L2-ish (1 MB) and
// out-of-cache (64 MB, the size of a 100k x 64 serving arena + qarena)
// payloads. "bytewise" is the one-table-lookup-per-byte loop every artifact
// was checksummed with before the kernel joined the SIMD dispatch table;
// "dispatched" is sisg::Crc32 (SISG_SIMD picks the level).

uint32_t Crc32Bytewise(const void* data, size_t len, uint32_t crc) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void BM_Crc32(benchmark::State& state,
              uint32_t (*crc32)(const void*, size_t, uint32_t)) {
  const size_t len = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> buf(len);
  Rng rng(29);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.UniformU64(256));
  SISG_CHECK(crc32(buf.data(), len, 0) == Crc32Bytewise(buf.data(), len, 0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(buf.data(), len, 0));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK_CAPTURE(BM_Crc32, bytewise, Crc32Bytewise)
    ->Arg(4 << 10)->Arg(1 << 20)->Arg(64 << 20);
BENCHMARK_CAPTURE(BM_Crc32, dispatched, Crc32)
    ->Arg(4 << 10)->Arg(1 << 20)->Arg(64 << 20);

}  // namespace
}  // namespace sisg

BENCHMARK_MAIN();
