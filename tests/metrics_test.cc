// Tests of the observability subsystem: lock-free counters/gauges under
// ThreadPool contention, log-bucket histogram boundaries and percentile
// merge, JSON exporter round-trip through the bundled parser, the
// sampler's artifact rewrite, the meaning of the candidate-scan byte
// counters, and the core invariant that instrumentation never perturbs
// training (metrics on vs off is bit-identical).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/matching_engine.h"
#include "corpus/corpus.h"
#include "datagen/dataset.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "sgns/embedding_model.h"
#include "sgns/trainer.h"
#include "suite_dir.h"

namespace sisg {
namespace {

/// Restores the global metrics switch (and zeroes the registry) around each
/// test so the suite is order-independent.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::MetricsEnabled();
    obs::MetricsRegistry::Global().Reset();
  }
  void TearDown() override {
    obs::EnableMetrics(was_enabled_);
    obs::MetricsRegistry::Global().Reset();
  }
  bool was_enabled_ = false;
};

// --------------------------- counters / gauges ---------------------------

TEST_F(MetricsTest, EnableToggle) {
  obs::EnableMetrics(true);
  EXPECT_TRUE(obs::MetricsEnabled());
  obs::EnableMetrics(false);
  EXPECT_FALSE(obs::MetricsEnabled());
}

TEST_F(MetricsTest, CounterBasics) {
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST_F(MetricsTest, GaugeSetAndAccumulate) {
  obs::Gauge g;
  g.Set(2.5);
  EXPECT_EQ(g.Value(), 2.5);
  g.Add(0.5);
  g.Add(-1.0);
  EXPECT_EQ(g.Value(), 2.0);
  g.Reset();
  EXPECT_EQ(g.Value(), 0.0);
}

// The shard merge must be exact under real contention: many pool workers
// hammering the same counter and histogram. Run under TSan this is also the
// data-race check for the whole write path.
TEST_F(MetricsTest, CounterAndHistogramExactUnderThreadPoolContention) {
  obs::Counter counter;
  obs::Histogram hist;
  constexpr int kTasks = 64;
  constexpr int kPerTask = 1000;
  {
    ThreadPool pool(8);
    for (int t = 0; t < kTasks; ++t) {
      pool.Submit([&counter, &hist, t] {
        for (int i = 0; i < kPerTask; ++i) {
          counter.Increment();
          hist.Observe(1e-3 * (1 + ((t + i) % 7)));
        }
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kTasks) * kPerTask);
  const obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kTasks) * kPerTask);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

// --------------------------- histogram buckets ---------------------------

TEST_F(MetricsTest, BucketBoundsContainTheirValues) {
  std::mt19937_64 rng(20260807);
  std::uniform_real_distribution<double> exp_dist(-30.0, 30.0);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::exp2(exp_dist(rng));
    const int idx = obs::Histogram::BucketIndex(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, obs::Histogram::kNumBuckets);
    ASSERT_LE(obs::Histogram::BucketLowerBound(idx), v)
        << "v=" << v << " idx=" << idx;
    ASSERT_LT(v, obs::Histogram::BucketUpperBound(idx))
        << "v=" << v << " idx=" << idx;
  }
}

TEST_F(MetricsTest, BucketEdgesAndSpecialValues) {
  // Zero and subnormal-small values land in the underflow bucket.
  EXPECT_EQ(obs::Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(1e-12), 0);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(0), 0.0);
  // Huge values and NaN go to the overflow bucket instead of indexing out
  // of range.
  EXPECT_EQ(obs::Histogram::BucketIndex(1e300),
            obs::Histogram::kNumBuckets - 1);
  EXPECT_EQ(obs::Histogram::BucketIndex(std::numeric_limits<double>::quiet_NaN()),
            obs::Histogram::kNumBuckets - 1);
  EXPECT_TRUE(std::isinf(
      obs::Histogram::BucketUpperBound(obs::Histogram::kNumBuckets - 1)));
  // An exact power of two is the inclusive lower edge of its bucket.
  const int idx = obs::Histogram::BucketIndex(1.0);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(idx), 1.0);
  // Buckets tile the range: upper(i) == lower(i+1).
  for (int i = 0; i + 1 < obs::Histogram::kNumBuckets - 1; ++i) {
    ASSERT_EQ(obs::Histogram::BucketUpperBound(i),
              obs::Histogram::BucketLowerBound(i + 1))
        << "gap after bucket " << i;
  }
}

TEST_F(MetricsTest, QuantilesWithinBucketResolution) {
  // 4 sub-buckets per octave bounds the relative quantile error by
  // 2^(1/4)-1 ~ 19%; check against an exactly known uniform stream.
  obs::Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Observe(i * 1e-4);  // 0.1ms .. 1s
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 10000u);
  EXPECT_NEAR(snap.sum, 10000.0 * 10001.0 / 2.0 * 1e-4, 1e-6);
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = q * 1.0;  // quantile of uniform(0, 1]
    const double est = snap.Quantile(q);
    EXPECT_NEAR(est, exact, exact * 0.20) << "q=" << q;
  }
  // Degenerate quantiles stay inside the observed range.
  EXPECT_GE(snap.Quantile(0.0), 0.0);
  EXPECT_LE(snap.Quantile(1.0), 2.0);
}

TEST_F(MetricsTest, MergeMatchesCombinedStream) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(1e-6, 10.0);
  obs::Histogram a, b, combined;
  for (int i = 0; i < 5000; ++i) {
    const double v = dist(rng);
    (i % 2 == 0 ? a : b).Observe(v);
    combined.Observe(v);
  }
  obs::HistogramSnapshot merged = a.Snapshot();
  merged.MergeFrom(b.Snapshot());
  const obs::HistogramSnapshot want = combined.Snapshot();
  EXPECT_EQ(merged.count, want.count);
  EXPECT_NEAR(merged.sum, want.sum, 1e-9);
  ASSERT_EQ(merged.buckets.size(), want.buckets.size());
  for (size_t i = 0; i < merged.buckets.size(); ++i) {
    ASSERT_EQ(merged.buckets[i], want.buckets[i]) << "bucket " << i;
  }
  for (const double q : {0.25, 0.5, 0.75, 0.99}) {
    EXPECT_EQ(merged.Quantile(q), want.Quantile(q));
  }
}

// --------------------------- registry ---------------------------

TEST_F(MetricsTest, RegistryPointersStableAcrossReset) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* c = reg.counter("test.reset_counter");
  obs::Gauge* g = reg.gauge("test.reset_gauge");
  obs::Histogram* h = reg.histogram("test.reset_hist");
  c->Add(5);
  g->Set(1.5);
  h->Observe(0.25);
  reg.Reset();
  // Same objects, zeroed values.
  EXPECT_EQ(reg.counter("test.reset_counter"), c);
  EXPECT_EQ(reg.gauge("test.reset_gauge"), g);
  EXPECT_EQ(reg.histogram("test.reset_hist"), h);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Count(), 0u);
}

TEST_F(MetricsTest, TraceSpanRecordsElapsed) {
  obs::EnableMetrics(true);
  obs::Histogram* h = obs::MetricsRegistry::Global().histogram("test.span");
  {
    obs::TraceSpan span(h);
  }
  EXPECT_EQ(h->Count(), 1u);
  EXPECT_GE(h->Snapshot().sum, 0.0);
  // Null histogram and disabled metrics are both no-ops.
  { obs::TraceSpan span(nullptr); }
  obs::EnableMetrics(false);
  { obs::TraceSpan span(h); }
  EXPECT_EQ(h->Count(), 1u);
}

// --------------------------- exporters ---------------------------

TEST_F(MetricsTest, JsonExportRoundTrips) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.counter("rt.pairs")->Add(12345);
  reg.gauge("rt.lr")->Set(0.024999999999999998);
  obs::Histogram* h = reg.histogram("rt.latency");
  for (int i = 1; i <= 100; ++i) h->Observe(i * 1e-3);

  const obs::MetricsSnapshot snap = reg.Snapshot();
  auto doc = obs::ParseJson(obs::ToJson(snap));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  const obs::JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::JsonValue* pairs = counters->Find("rt.pairs");
  ASSERT_NE(pairs, nullptr);
  EXPECT_EQ(pairs->as_number(), 12345.0);

  const obs::JsonValue* gauges = doc->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  // %.17g printing makes the double survive the round trip exactly.
  EXPECT_EQ(gauges->Find("rt.lr")->as_number(), 0.024999999999999998);

  const obs::JsonValue* hist = doc->Find("histograms")->Find("rt.latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->as_number(), 100.0);
  EXPECT_EQ(hist->Find("p50")->as_number(),
            snap.histograms.at("rt.latency").Quantile(0.5));
  EXPECT_EQ(hist->Find("mean")->as_number(),
            snap.histograms.at("rt.latency").Mean());
  EXPECT_NE(hist->Find("p99"), nullptr);
  EXPECT_NE(hist->Find("max"), nullptr);
}

TEST_F(MetricsTest, JsonFileWriteThenParse) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.counter("file.events")->Add(7);
  const std::string path = SuiteDir() + "/metrics_rt.json";
  ASSERT_TRUE(obs::WriteJsonFile(reg.Snapshot(), path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  auto doc = obs::ParseJson(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("counters")->Find("file.events")->as_number(), 7.0);
  std::remove(path.c_str());
}

/// The counter `name` in the JSON metrics artifact at `path` (-1 when the
/// file or the counter is missing).
double ArtifactCounter(const std::string& path, const std::string& name) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  auto doc = obs::ParseJson(text);
  if (!doc.ok() || doc->Find("counters") == nullptr) return -1;
  const obs::JsonValue* v = doc->Find("counters")->Find(name);
  return v == nullptr ? -1 : v->as_number();
}

TEST_F(MetricsTest, SamplerTickRewritesArtifactAndStopWritesFinalTick) {
  obs::EnableMetrics(true);
  auto& reg = obs::MetricsRegistry::Global();
  const std::string path = SuiteDir() + "/sampler_tick.json";
  std::remove(path.c_str());
  obs::MetricsSampler::Options opts;
  opts.interval_seconds = 3600;  // the background loop never ticks here
  opts.json_path = path;
  obs::MetricsSampler sampler(opts);

  reg.counter("sampler.events")->Add(3);
  sampler.TickOnce();
  EXPECT_EQ(ArtifactCounter(path, "sampler.events"), 3.0);
  reg.counter("sampler.events")->Add(4);
  EXPECT_EQ(ArtifactCounter(path, "sampler.events"), 3.0);  // not yet
  sampler.TickOnce();
  EXPECT_EQ(ArtifactCounter(path, "sampler.events"), 7.0);

  // Stop() joins the loop, then writes one final tick: the artifact ends
  // at end-of-run state even though no interval elapsed.
  sampler.Start();
  reg.counter("sampler.events")->Add(5);
  sampler.Stop();
  EXPECT_EQ(ArtifactCounter(path, "sampler.events"), 12.0);
  std::remove(path.c_str());
}

TEST_F(MetricsTest, JsonParserHandlesEscapesAndRejectsGarbage) {
  auto ok = obs::ParseJson(
      R"({"s": "a\n\"bé", "arr": [1, -2.5e3, true, null], "o": {}})");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->Find("s")->as_string(), "a\n\"b\xc3\xa9");
  ASSERT_EQ(ok->Find("arr")->as_array().size(), 4u);
  EXPECT_EQ(ok->Find("arr")->as_array()[1].as_number(), -2500.0);
  EXPECT_TRUE(ok->Find("arr")->as_array()[3].is_null());

  EXPECT_FALSE(obs::ParseJson("").ok());
  EXPECT_FALSE(obs::ParseJson("{").ok());
  EXPECT_FALSE(obs::ParseJson("{} trailing").ok());
  EXPECT_FALSE(obs::ParseJson(R"({"a": nul})").ok());
  EXPECT_FALSE(obs::ParseJson(R"({"a": 1-2})").ok());
  EXPECT_FALSE(obs::ParseJson(R"({"a": "unterminated)").ok());
  // Depth bound rejects adversarial nesting instead of overflowing the
  // stack.
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(obs::ParseJson(deep).ok());
}

TEST_F(MetricsTest, PrometheusTextShape) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.counter("prom.requests")->Add(3);
  reg.histogram("prom.latency")->Observe(0.01);
  const std::string text = obs::ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE sisg_prom_requests counter"), std::string::npos);
  EXPECT_NE(text.find("sisg_prom_requests 3"), std::string::npos);
  EXPECT_NE(text.find("sisg_prom_latency_count 1"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
}

// --------------------------- training invariance ---------------------------

// The load-bearing guarantee: flipping metrics on must not change a single
// trained byte. All instrumentation is read-only with respect to model
// state and consumes no RNG. The ctest registration also runs this pinned
// to SISG_SIMD=scalar (metrics_test_scalar) so the comparison is
// dispatch-independent.
// --------------------------- scan byte counters ---------------------------

// serve.bytes_scanned counts bytes scored (the block once per query, plus
// the fp32 rerank rows of the int8 path); serve.bytes_streamed counts the
// block once per pass: per query on the per-query path, per shard on the
// coalesced one. The IVF-PQ walk counts the same bytes in both.
TEST_F(MetricsTest, ScanBytesCountScoredAndStreamedBlocks) {
  obs::EnableMetrics(true);
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* scanned = reg.counter("serve.bytes_scanned");
  obs::Counter* streamed = reg.counter("serve.bytes_streamed");
  obs::Counter* reranked = reg.counter("serve.rerank_rows");

  const uint32_t n = 300, dim = 24;
  Rng rng(7);
  std::vector<float> in(static_cast<size_t>(n) * dim);
  for (float& x : in) x = static_cast<float>(rng.Gaussian());
  MatchingEngine engine;
  ASSERT_TRUE(
      engine.Build(in, {}, n, dim, SimilarityMode::kCosineInput).ok());
  std::vector<uint32_t> items, ks;
  for (uint32_t i = 0; i < 9; ++i) {
    items.push_back(i * 7);
    ks.push_back(5);
  }

  const uint64_t fp32_block = uint64_t{n} * AlignedRowStride(dim) * 4;
  engine.QueryBatchCoalesced(items.data(), ks.data(), items.size());
  EXPECT_EQ(streamed->Value(), fp32_block);
  EXPECT_EQ(scanned->Value(), fp32_block * items.size());

  reg.Reset();
  ThreadPool pool(2);  // 9 queries over 2 workers: two shard passes
  engine.QueryBatchCoalesced(items.data(), ks.data(), items.size(), &pool);
  EXPECT_EQ(streamed->Value(), 2 * fp32_block);
  EXPECT_EQ(scanned->Value(), fp32_block * items.size());

  reg.Reset();
  engine.Query(items[0], 5);
  EXPECT_EQ(streamed->Value(), fp32_block);
  EXPECT_EQ(scanned->Value(), fp32_block);

  ASSERT_TRUE(engine.EnableInt8().ok());
  const uint64_t int8_block = uint64_t{(n + 15) / 16} * I8GroupBytes(dim);
  reg.Reset();
  engine.QueryBatchCoalesced(items.data(), ks.data(), items.size());
  EXPECT_EQ(streamed->Value(), int8_block);
  EXPECT_GT(reranked->Value(), 0u);
  EXPECT_EQ(scanned->Value(), int8_block * items.size() +
                                  reranked->Value() * dim * sizeof(float));

  reg.Reset();
  engine.Query(items[0], 5);
  EXPECT_EQ(streamed->Value(), int8_block);
  EXPECT_EQ(scanned->Value(),
            int8_block + reranked->Value() * dim * sizeof(float));

  // An IVF-PQ walk scores m-byte codes of the probed rows plus fp32 rerank
  // rows (not its ADC table) and shares nothing across queries, so it
  // streams every byte it scores.
  PqOptions pq;
  pq.m = 8;  // divides dim: 8 code bytes per row
  ASSERT_TRUE(engine.EnableIvfPq(IvfOptions{}, pq).ok());
  reg.Reset();
  engine.QueryBatchCoalesced(items.data(), ks.data(), items.size());
  const uint64_t ivf_rows = reg.counter("serve.ivf_rows_scanned")->Value();
  EXPECT_GT(ivf_rows, 0u);
  EXPECT_GT(reranked->Value(), 0u);
  EXPECT_EQ(scanned->Value(),
            ivf_rows * pq.m + reranked->Value() * dim * sizeof(float));
  EXPECT_EQ(streamed->Value(), scanned->Value());
}

// serve.query_seconds holds one observation per engine scan call — a
// Query, a QueryVector, one whole QueryBatchCoalesced or QueryBatch batch,
// pooled or not, however many shards it is cut into, or one ring query
// from BeginQuery to FinishQuery — while serve.queries counts the queries
// answered.
TEST_F(MetricsTest, QuerySecondsObservesOncePerScanCall) {
  obs::EnableMetrics(true);
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* queries = reg.counter("serve.queries");
  obs::Histogram* latency = reg.histogram("serve.query_seconds");

  const uint32_t n = 200, dim = 16;
  Rng rng(11);
  std::vector<float> in(static_cast<size_t>(n) * dim);
  for (float& x : in) x = static_cast<float>(rng.Gaussian());
  MatchingEngine engine;
  ASSERT_TRUE(
      engine.Build(in, {}, n, dim, SimilarityMode::kCosineInput).ok());

  constexpr uint32_t kCalls = 6;
  for (uint32_t i = 0; i < kCalls; ++i) engine.Query(i * 3, 5);
  EXPECT_EQ(latency->Count(), kCalls);
  EXPECT_EQ(queries->Value(), kCalls);

  std::vector<uint32_t> items, ks;
  for (uint32_t i = 0; i < 9; ++i) {
    items.push_back(i * 7);
    ks.push_back(5);
  }
  reg.Reset();
  engine.QueryBatchCoalesced(items.data(), ks.data(), items.size());
  EXPECT_EQ(latency->Count(), 1u);
  EXPECT_EQ(queries->Value(), items.size());

  reg.Reset();
  ThreadPool pool(2);
  engine.QueryBatchCoalesced(items.data(), ks.data(), items.size(), &pool);
  EXPECT_EQ(latency->Count(), 1u);
  EXPECT_EQ(queries->Value(), items.size());

  reg.Reset();
  engine.QueryVector(in.data(), 5);
  EXPECT_EQ(latency->Count(), 1u);
  EXPECT_EQ(queries->Value(), 1u);

  // 600 queries are three shards serially and more over four workers; the
  // batch is still one scan call.
  std::vector<uint32_t> many;
  for (uint32_t i = 0; i < 600; ++i) many.push_back(i % n);
  for (uint32_t threads : {1u, 4u}) {
    reg.Reset();
    engine.QueryBatch(many, 5, threads);
    EXPECT_EQ(latency->Count(), 1u) << threads << " threads";
    EXPECT_EQ(queries->Value(), 600u) << threads << " threads";
  }

  // Two ring queries joining at different chunks and sharing steps: one
  // observation each, recorded when its lap is answered.
  reg.Reset();
  const uint32_t chunks = engine.num_chunks();
  ASSERT_GE(chunks, 1u);
  MatchingEngine::ChunkQuery a, b;
  ASSERT_TRUE(engine.BeginQuery(3, 5, 0, &a));
  MatchingEngine::ChunkQuery* first[] = {&a};
  engine.ScanChunks(0, 1, first, 1);
  ASSERT_TRUE(engine.BeginQuery(4, 5, 1 % chunks, &b));
  MatchingEngine::ChunkQuery* both[] = {&a, &b};
  if (chunks > 1) engine.ScanChunks(1, chunks - 1, both, 2);
  engine.FinishQuery(&a);
  EXPECT_EQ(latency->Count(), 1u);
  MatchingEngine::ChunkQuery* rest[] = {&b};
  engine.ScanChunks(0, 1, rest, 1);
  engine.FinishQuery(&b);
  EXPECT_EQ(latency->Count(), 2u);
  EXPECT_EQ(queries->Value(), 2u);
}

TEST_F(MetricsTest, TrainingBitIdenticalWithMetricsOnAndOff) {
  DatasetSpec spec;
  spec.catalog.num_items = 200;
  spec.catalog.num_leaf_categories = 6;
  spec.catalog.num_shops = 20;
  spec.catalog.num_brands = 16;
  spec.users.num_user_types = 30;
  spec.num_train_sessions = 600;
  spec.num_test_sessions = 10;
  auto ds = SyntheticDataset::Generate(spec);
  ASSERT_TRUE(ds.ok());
  const TokenSpace ts = TokenSpace::Create(&ds->catalog(), &ds->users());
  Corpus corpus;
  VectorSessionSource sessions(&ds->train_sessions());
  ASSERT_TRUE(
      corpus.BuildFromSource(&sessions, ts, ds->catalog(), CorpusOptions{})
          .ok());

  // Single-threaded: with >1 worker the HogWild update order is already
  // scheduler-dependent, so run-to-run comparison is only meaningful here.
  SgnsOptions opts;
  opts.dim = 16;
  opts.epochs = 2;
  opts.negatives = 5;
  opts.num_threads = 1;

  obs::EnableMetrics(false);
  EmbeddingModel off;
  ASSERT_TRUE(SgnsTrainer(opts).Train(corpus, &off).ok());

  obs::EnableMetrics(true);
  EmbeddingModel on;
  ASSERT_TRUE(SgnsTrainer(opts).Train(corpus, &on).ok());
  obs::EnableMetrics(false);

  ASSERT_EQ(off.rows(), on.rows());
  ASSERT_EQ(off.dim(), on.dim());
  for (uint32_t r = 0; r < off.rows(); ++r) {
    ASSERT_EQ(std::memcmp(off.Input(r), on.Input(r),
                          off.dim() * sizeof(float)),
              0)
        << "input row " << r << " diverged with metrics enabled";
    ASSERT_EQ(std::memcmp(off.Output(r), on.Output(r),
                          off.dim() * sizeof(float)),
              0)
        << "output row " << r << " diverged with metrics enabled";
  }
  // And the metrics actually recorded the run.
  EXPECT_GE(obs::MetricsRegistry::Global().counter("train.pairs")->Value(),
            1u);
}

// The hot-row replica metrics: rows, syncs and sync times are non-zero with
// several threads, and one thread trains without replicas.
TEST_F(MetricsTest, TrainingReportsReplicaSyncs) {
  DatasetSpec spec;
  spec.catalog.num_items = 200;
  spec.catalog.num_leaf_categories = 6;
  spec.catalog.num_shops = 20;
  spec.catalog.num_brands = 16;
  spec.users.num_user_types = 30;
  spec.num_train_sessions = 600;
  spec.num_test_sessions = 10;
  auto ds = SyntheticDataset::Generate(spec);
  ASSERT_TRUE(ds.ok());
  const TokenSpace ts = TokenSpace::Create(&ds->catalog(), &ds->users());
  Corpus corpus;
  VectorSessionSource sessions(&ds->train_sessions());
  ASSERT_TRUE(
      corpus.BuildFromSource(&sessions, ts, ds->catalog(), CorpusOptions{})
          .ok());
  SgnsOptions opts;
  opts.dim = 16;
  opts.epochs = 2;
  opts.negatives = 5;

  auto& reg = obs::MetricsRegistry::Global();
  obs::EnableMetrics(true);
  opts.num_threads = 4;
  EmbeddingModel multi;
  ASSERT_TRUE(SgnsTrainer(opts).Train(corpus, &multi).ok());
  EXPECT_EQ(reg.gauge("train.replica_rows")->Value(),
            SgnsTrainer(opts).ReplicaRows(corpus.vocab()));
  EXPECT_GT(reg.gauge("train.replica_rows")->Value(), 0.0);
  // At least the exit sync of every thread.
  EXPECT_GE(reg.counter("train.replica_syncs")->Value(), 4u);
  EXPECT_EQ(reg.histogram("train.replica_sync_seconds")->Count(),
            reg.counter("train.replica_syncs")->Value());

  reg.Reset();
  opts.num_threads = 1;
  EmbeddingModel single;
  ASSERT_TRUE(SgnsTrainer(opts).Train(corpus, &single).ok());
  obs::EnableMetrics(false);
  EXPECT_EQ(reg.gauge("train.replica_rows")->Value(), 0.0);
  EXPECT_EQ(reg.counter("train.replica_syncs")->Value(), 0u);
  EXPECT_EQ(reg.histogram("train.replica_sync_seconds")->Count(), 0u);
}

}  // namespace
}  // namespace sisg
