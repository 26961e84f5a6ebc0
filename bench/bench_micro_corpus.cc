// Micro-benchmarks (google-benchmark) of the ingestion pipeline: streamed
// session parsing, serial vs multi-threaded corpus construction from memory
// and from a sessions file, packed vs nested corpus traversal, and the
// end-to-end SGNS epoch on the packed arena. Emits BENCH_corpus.json from
// run_benches.sh.

#include <benchmark/benchmark.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "corpus/corpus.h"
#include "datagen/session_stream.h"
#include "obs/metrics.h"
#include "sgns/trainer.h"

namespace sisg {
namespace {

const SyntheticDataset& Dataset() {
  static const SyntheticDataset ds = [] {
    auto d = SyntheticDataset::Generate(bench::DefaultSpec("SynCorpus"));
    SISG_CHECK(d.ok());
    return std::move(d).value();
  }();
  return ds;
}

CorpusOptions BenchCorpusOptions(uint32_t threads) {
  CorpusOptions opts;
  opts.min_count = 2;
  opts.num_threads = threads;
  return opts;
}

const Corpus& BenchCorpus() {
  static const Corpus corpus = [] {
    const auto& ds = Dataset();
    static const TokenSpace ts =
        TokenSpace::Create(&ds.catalog(), &ds.users());
    Corpus c;
    VectorSessionSource sessions(&ds.train_sessions());
    SISG_CHECK(c.BuildFromSource(&sessions, ts, ds.catalog(),
                                 BenchCorpusOptions(1))
                   .ok());
    return c;
  }();
  return corpus;
}

/// The pre-arena ingest algorithm, kept as the speedup reference: enrich
/// every session into its own heap vector, count per enriched token, encode
/// each sequence into another nested vector. This is what the corpus build did
/// before the packed-arena rewrite.
void BM_CorpusBuildBaseline(benchmark::State& state) {
  const auto& ds = Dataset();
  const TokenSpace ts = TokenSpace::Create(&ds.catalog(), &ds.users());
  const SequenceEnricher enricher(&ts, &ds.catalog(), EnrichOptions{});
  for (auto _ : state) {
    std::vector<std::vector<uint32_t>> token_seqs;
    token_seqs.reserve(ds.train_sessions().size());
    std::vector<uint32_t> buf;
    for (const Session& s : ds.train_sessions()) {
      enricher.Enrich(s, &buf);
      token_seqs.push_back(buf);
    }
    std::vector<uint64_t> counts(ts.num_tokens(), 0);
    for (const auto& seq : token_seqs) {
      for (uint32_t tok : seq) ++counts[tok];
    }
    Vocabulary vocab;
    SISG_CHECK(vocab.BuildFromCounts(counts, /*min_count=*/2, ts).ok());
    std::vector<std::vector<uint32_t>> sequences;
    sequences.reserve(token_seqs.size());
    uint64_t num_tokens = 0;
    for (const auto& seq : token_seqs) {
      std::vector<uint32_t> enc;
      enc.reserve(seq.size());
      for (uint32_t tok : seq) {
        const int32_t v = vocab.ToVocab(tok);
        if (v >= 0) enc.push_back(static_cast<uint32_t>(v));
      }
      if (enc.size() >= 2) {
        num_tokens += enc.size();
        sequences.push_back(std::move(enc));
      }
    }
    benchmark::DoNotOptimize(num_tokens);
  }
  state.SetItemsProcessed(state.iterations() * ds.train_sessions().size());
}
BENCHMARK(BM_CorpusBuildBaseline)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Serial vs parallel count + encode into the packed arena, from sessions
/// in memory (a VectorSessionSource copies each block before it is
/// counted). The output is byte-identical at every thread count, so this is
/// a pure speedup curve; compare against BM_CorpusBuildBaseline for the
/// ingest rewrite payoff.
void BM_CorpusBuild(benchmark::State& state) {
  const auto& ds = Dataset();
  const TokenSpace ts = TokenSpace::Create(&ds.catalog(), &ds.users());
  const CorpusOptions opts =
      BenchCorpusOptions(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    Corpus c;
    VectorSessionSource sessions(&ds.train_sessions());
    SISG_CHECK(c.BuildFromSource(&sessions, ts, ds.catalog(), opts).ok());
    benchmark::DoNotOptimize(c.num_tokens());
  }
  state.SetItemsProcessed(state.iterations() * ds.train_sessions().size());
}
BENCHMARK(BM_CorpusBuild)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

struct SessionsFile {
  std::string path;
  int64_t bytes;
};

/// Writes a sessions file holding the bench dataset `copies` times over.
SessionsFile WriteSessionsFile(int copies) {
  std::vector<Session> sessions;
  for (int c = 0; c < copies; ++c) {
    sessions.insert(sessions.end(), Dataset().train_sessions().begin(),
                    Dataset().train_sessions().end());
  }
  const std::string p =
      "/tmp/bench_corpus_sessions_x" + std::to_string(copies) + ".txt";
  SISG_CHECK(WriteSessionsText(sessions, Dataset().users(), p).ok());
  std::ifstream in(p, std::ios::binary | std::ios::ate);
  return {p, static_cast<int64_t>(in.tellg())};
}

/// Chunked text parse of a sessions file (read + parse inline on the
/// calling thread, as SessionSource::ReadAll drains a stream for the
/// distributed path and ReadSessionsText).
void BM_SessionStreamRead(benchmark::State& state) {
  const auto& ds = Dataset();
  static const SessionsFile file = WriteSessionsFile(1);
  uint64_t sessions = 0;
  for (auto _ : state) {
    auto stream = SessionStream::Open(ds.users(), file.path);
    SISG_CHECK(stream.ok());
    std::vector<Session> chunk;
    sessions = 0;
    for (;;) {
      SISG_CHECK(stream->NextChunk(&chunk).ok());
      if (chunk.empty()) break;
      sessions += chunk.size();
    }
    benchmark::DoNotOptimize(sessions);
  }
  state.SetItemsProcessed(state.iterations() * sessions);
  state.SetBytesProcessed(state.iterations() * file.bytes);
}
BENCHMARK(BM_SessionStreamRead)->Unit(benchmark::kMillisecond);

/// File -> corpus, the sisg_train ingest path: the calling thread reads raw
/// blocks, the ingest workers parse, count and encode them. Arg = ingest
/// threads; the corpus is byte-identical at every count. The dataset is
/// written 8 times over so the file spans enough raw blocks to keep every
/// worker busy.
void BM_CorpusBuildFromFile(benchmark::State& state) {
  const auto& ds = Dataset();
  static const SessionsFile file = WriteSessionsFile(8);
  const TokenSpace ts = TokenSpace::Create(&ds.catalog(), &ds.users());
  const CorpusOptions opts =
      BenchCorpusOptions(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    auto stream = SessionStream::Open(ds.users(), file.path);
    SISG_CHECK(stream.ok());
    Corpus c;
    SISG_CHECK(c.BuildFromSource(&*stream, ts, ds.catalog(), opts).ok());
    benchmark::DoNotOptimize(c.num_tokens());
  }
  state.SetItemsProcessed(state.iterations() * 8 * ds.train_sessions().size());
  state.SetBytesProcessed(state.iterations() * file.bytes);
}
BENCHMARK(BM_CorpusBuildFromFile)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Full-corpus scan on the packed CSR arena: one sequential stream.
void BM_PackedTraversal(benchmark::State& state) {
  const PackedCorpus& packed = BenchCorpus().packed();
  for (auto _ : state) {
    uint64_t sum = 0;
    for (uint64_t s = 0; s < packed.size(); ++s) {
      for (uint32_t v : packed.seq(s)) sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * packed.num_tokens());
}
BENCHMARK(BM_PackedTraversal)->Unit(benchmark::kMillisecond);

/// The same scan on the pre-arena layout (vector<vector>): one heap
/// allocation per sequence, a pointer chase per access.
void BM_NestedTraversal(benchmark::State& state) {
  static const std::vector<std::vector<uint32_t>> nested = [] {
    const PackedCorpus& packed = BenchCorpus().packed();
    std::vector<std::vector<uint32_t>> out;
    out.reserve(packed.size());
    for (uint64_t s = 0; s < packed.size(); ++s) {
      const auto seq = packed.seq(s);
      out.emplace_back(seq.begin(), seq.end());
    }
    return out;
  }();
  for (auto _ : state) {
    uint64_t sum = 0;
    for (const auto& seq : nested) {
      for (uint32_t v : seq) sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * BenchCorpus().num_tokens());
}
BENCHMARK(BM_NestedTraversal)->Unit(benchmark::kMillisecond);

/// One deterministic single-thread SGNS epoch over the packed corpus — the
/// trainer-side payoff of the arena layout.
void BM_SgnsEpochPacked(benchmark::State& state) {
  const Corpus& corpus = BenchCorpus();
  SgnsOptions opts;
  opts.dim = 64;
  opts.epochs = 1;
  opts.negatives = 10;
  opts.window.window = 8;
  opts.num_threads = 1;
  const SgnsTrainer trainer(opts);
  for (auto _ : state) {
    EmbeddingModel model;
    TrainStats stats;
    SISG_CHECK(trainer.Train(corpus, &model, &stats, nullptr).ok());
    benchmark::DoNotOptimize(stats.pairs_trained);
  }
  state.SetItemsProcessed(state.iterations() * corpus.num_tokens());
}
BENCHMARK(BM_SgnsEpochPacked)->Unit(benchmark::kMillisecond);

/// The same epoch with the metrics registry live — the number to compare
/// against BM_SgnsEpochPacked for the enabled-instrumentation overhead
/// budget (<= 5%; the disabled path is a single relaxed atomic load and
/// rides inside BM_SgnsEpochPacked itself).
void BM_SgnsEpochPackedMetrics(benchmark::State& state) {
  const Corpus& corpus = BenchCorpus();
  SgnsOptions opts;
  opts.dim = 64;
  opts.epochs = 1;
  opts.negatives = 10;
  opts.window.window = 8;
  opts.num_threads = 1;
  const SgnsTrainer trainer(opts);
  const bool was_enabled = obs::MetricsEnabled();
  obs::EnableMetrics(true);
  for (auto _ : state) {
    EmbeddingModel model;
    TrainStats stats;
    SISG_CHECK(trainer.Train(corpus, &model, &stats, nullptr).ok());
    benchmark::DoNotOptimize(stats.pairs_trained);
  }
  obs::EnableMetrics(was_enabled);
  state.SetItemsProcessed(state.iterations() * corpus.num_tokens());
}
BENCHMARK(BM_SgnsEpochPackedMetrics)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sisg

BENCHMARK_MAIN();
