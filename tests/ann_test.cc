// Tests of the approximate-nearest-neighbor serving layer: k-means
// quantizer and the IVF index, including recall against brute force.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "common/io_util.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "core/hnsw_index.h"
#include "core/ivf_index.h"
#include "core/kmeans.h"
#include "core/matching_engine.h"
#include "core/pipeline.h"
#include "datagen/dataset.h"

namespace sisg {
namespace {

std::vector<float> BlobData(uint32_t per_blob, uint32_t blobs, uint32_t dim,
                            uint64_t seed, std::vector<uint32_t>* labels) {
  Rng rng(seed);
  std::vector<float> data;
  data.reserve(static_cast<size_t>(per_blob) * blobs * dim);
  for (uint32_t b = 0; b < blobs; ++b) {
    std::vector<float> center(dim);
    for (auto& c : center) c = rng.UniformFloat() * 10.0f - 5.0f;
    for (uint32_t i = 0; i < per_blob; ++i) {
      for (uint32_t d = 0; d < dim; ++d) {
        data.push_back(center[d] + static_cast<float>(rng.Gaussian()) * 0.2f);
      }
      if (labels != nullptr) labels->push_back(b);
    }
  }
  return data;
}

// --------------------------- kmeans ---------------------------

TEST(KMeansTest, RejectsBadInput) {
  KMeans km;
  EXPECT_FALSE(km.Fit(nullptr, 10, 4, {}).ok());
  std::vector<float> zeros(40, 0.0f);
  EXPECT_FALSE(km.Fit(zeros.data(), 10, 4, {}).ok());
  std::vector<float> data(40, 1.0f);
  KMeansOptions bad;
  bad.num_clusters = 0;
  EXPECT_FALSE(km.Fit(data.data(), 10, 4, bad).ok());
}

TEST(KMeansTest, RecoversWellSeparatedBlobs) {
  std::vector<uint32_t> labels;
  const auto data = BlobData(50, 4, 8, 1, &labels);
  KMeans km;
  KMeansOptions opts;
  opts.num_clusters = 4;
  ASSERT_TRUE(km.Fit(data.data(), 200, 8, opts).ok());
  EXPECT_EQ(km.num_clusters(), 4u);
  // All members of one blob land in the same cluster.
  for (uint32_t b = 0; b < 4; ++b) {
    std::set<uint32_t> assigned;
    for (uint32_t i = 0; i < 200; ++i) {
      if (labels[i] == b) assigned.insert(km.Assign(data.data() + i * 8));
    }
    EXPECT_EQ(assigned.size(), 1u) << "blob " << b << " split";
  }
}

TEST(KMeansTest, ClampsClustersToLiveRows) {
  std::vector<float> data(5 * 4, 0.0f);
  for (int i = 0; i < 3; ++i) data[static_cast<size_t>(i) * 4] = i + 1.0f;
  KMeans km;
  KMeansOptions opts;
  opts.num_clusters = 10;
  ASSERT_TRUE(km.Fit(data.data(), 5, 4, opts).ok());
  EXPECT_EQ(km.num_clusters(), 3u);  // only 3 non-zero rows
}

TEST(KMeansTest, AssignTopNOrdered) {
  std::vector<uint32_t> labels;
  const auto data = BlobData(30, 5, 6, 2, &labels);
  KMeans km;
  KMeansOptions opts;
  opts.num_clusters = 5;
  ASSERT_TRUE(km.Fit(data.data(), 150, 6, opts).ok());
  const auto top = km.AssignTopN(data.data(), 5);
  ASSERT_EQ(top.size(), 5u);
  EXPECT_EQ(top[0], km.Assign(data.data()));
  std::set<uint32_t> distinct(top.begin(), top.end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(KMeansTest, Deterministic) {
  const auto data = BlobData(40, 3, 4, 3, nullptr);
  KMeans a, b;
  KMeansOptions opts;
  opts.num_clusters = 3;
  ASSERT_TRUE(a.Fit(data.data(), 120, 4, opts).ok());
  ASSERT_TRUE(b.Fit(data.data(), 120, 4, opts).ok());
  for (uint32_t c = 0; c < 3; ++c) {
    for (uint32_t d = 0; d < 4; ++d) {
      EXPECT_EQ(a.Centroid(c)[d], b.Centroid(c)[d]);
    }
  }
}

// --------------------------- IVF ---------------------------

TEST(IvfIndexTest, RejectsBadOptions) {
  const auto data = BlobData(10, 2, 4, 4, nullptr);
  IvfIndex index;
  IvfOptions opts;
  opts.nprobe = 0;
  EXPECT_FALSE(index.Build(data.data(), 20, 4, opts).ok());
}

TEST(IvfIndexTest, ExcludesZeroRowsAndQueryItem) {
  // 5 rows of dim 2; rows 1, 3 and 4 are zero (untrained items).
  std::vector<float> data = {1, 0, 0, 0, 0.9f, 0.1f, 0, 0, 0, 0};
  IvfIndex index;
  IvfOptions opts;
  opts.kmeans.num_clusters = 2;
  ASSERT_TRUE(index.Build(data.data(), 5, 2, opts).ok());
  EXPECT_EQ(index.num_vectors(), 2u);  // zero rows dropped
  const float q[2] = {1, 0};
  const auto res = index.Query(q, 10, /*exclude=*/0);
  for (const auto& r : res) EXPECT_NE(r.id, 0u);
}

class IvfRecall : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(IvfRecall, HighRecallAgainstBruteForce) {
  const auto [num_clusters, nprobe] = GetParam();
  Rng rng(7);
  const uint32_t n = 2000, dim = 16;
  std::vector<float> data(static_cast<size_t>(n) * dim);
  for (auto& x : data) x = rng.UniformFloat() - 0.5f;

  IvfIndex index;
  IvfOptions opts;
  opts.kmeans.num_clusters = num_clusters;
  opts.nprobe = nprobe;
  ASSERT_TRUE(index.Build(data.data(), n, dim, opts).ok());

  // Brute-force reference.
  const uint32_t k = 10;
  double recall = 0.0;
  const uint32_t queries = 50;
  for (uint32_t q = 0; q < queries; ++q) {
    const float* qv = data.data() + static_cast<size_t>(q) * dim;
    TopKSelector exact(k);
    for (uint32_t c = 0; c < n; ++c) {
      if (c != q) exact.Push(Dot(qv, data.data() + static_cast<size_t>(c) * dim, dim), c);
    }
    const auto truth = exact.Take();
    const auto approx = index.Query(qv, k, q);
    int common = 0;
    for (const auto& a : truth) {
      for (const auto& b : approx) common += a.id == b.id;
    }
    recall += static_cast<double>(common) / k;
  }
  recall /= queries;
  // Recall grows with nprobe; even modest settings stay useful.
  const double floor = nprobe >= num_clusters ? 0.999 : 0.35;
  EXPECT_GT(recall, floor) << "clusters=" << num_clusters << " nprobe=" << nprobe;
}

INSTANTIATE_TEST_SUITE_P(Settings, IvfRecall,
                         ::testing::Values(std::make_tuple(16u, 4u),
                                           std::make_tuple(16u, 16u),
                                           std::make_tuple(64u, 16u)));

TEST(IvfIndexTest, FullProbeMatchesBruteForceExactly) {
  Rng rng(9);
  const uint32_t n = 300, dim = 8;
  std::vector<float> data(static_cast<size_t>(n) * dim);
  for (auto& x : data) x = rng.UniformFloat() - 0.5f;
  IvfIndex index;
  IvfOptions opts;
  opts.kmeans.num_clusters = 8;
  opts.nprobe = 8;  // scan everything
  ASSERT_TRUE(index.Build(data.data(), n, dim, opts).ok());
  const float* qv = data.data();
  TopKSelector exact(5);
  for (uint32_t c = 1; c < n; ++c) {
    exact.Push(Dot(qv, data.data() + static_cast<size_t>(c) * dim, dim), c);
  }
  const auto truth = exact.Take();
  const auto approx = index.Query(qv, 5, 0);
  ASSERT_EQ(truth.size(), approx.size());
  for (size_t i = 0; i < truth.size(); ++i) EXPECT_EQ(truth[i].id, approx[i].id);
}

// --------------------------- HNSW ---------------------------

TEST(HnswIndexTest, RejectsBadOptions) {
  const auto data = BlobData(10, 2, 4, 5, nullptr);
  HnswIndex index;
  HnswOptions opts;
  opts.M = 1;
  EXPECT_FALSE(index.Build(data.data(), 20, 4, opts).ok());
  opts = HnswOptions{};
  opts.ef_construction = 2;
  EXPECT_FALSE(index.Build(data.data(), 20, 4, opts).ok());
  EXPECT_FALSE(index.Build(nullptr, 20, 4, HnswOptions{}).ok());
  std::vector<float> zeros(80, 0.0f);
  EXPECT_FALSE(index.Build(zeros.data(), 20, 4, HnswOptions{}).ok());
}

TEST(HnswIndexTest, SingleVector) {
  std::vector<float> data = {1.0f, 0.0f};
  HnswIndex index;
  ASSERT_TRUE(index.Build(data.data(), 1, 2, HnswOptions{}).ok());
  EXPECT_EQ(index.num_vectors(), 1u);
  const float q[2] = {1.0f, 0.0f};
  const auto res = index.Query(q, 5);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].id, 0u);
  EXPECT_TRUE(index.Query(q, 5, /*exclude=*/0).empty());
}

class HnswRecall : public ::testing::TestWithParam<uint32_t> {};

TEST_P(HnswRecall, HighRecallOnNormalizedVectors) {
  const uint32_t ef_search = GetParam();
  Rng rng(11);
  const uint32_t n = 1500, dim = 16;
  std::vector<float> data(static_cast<size_t>(n) * dim);
  for (auto& x : data) x = rng.UniformFloat() - 0.5f;
  // Normalize (the MatchingEngine serves normalized candidate rows).
  for (uint32_t r = 0; r < n; ++r) {
    float* row = data.data() + static_cast<size_t>(r) * dim;
    const float norm = L2Norm(row, dim);
    Scale(1.0f / norm, row, dim);
  }

  HnswIndex index;
  HnswOptions opts;
  opts.ef_search = ef_search;
  ASSERT_TRUE(index.Build(data.data(), n, dim, opts).ok());
  EXPECT_EQ(index.num_vectors(), n);

  const uint32_t k = 10;
  double recall = 0.0;
  const uint32_t queries = 40;
  for (uint32_t q = 0; q < queries; ++q) {
    const float* qv = data.data() + static_cast<size_t>(q) * dim;
    TopKSelector exact(k);
    for (uint32_t c = 0; c < n; ++c) {
      if (c != q) {
        exact.Push(Dot(qv, data.data() + static_cast<size_t>(c) * dim, dim), c);
      }
    }
    const auto truth = exact.Take();
    const auto approx = index.Query(qv, k, q);
    int common = 0;
    for (const auto& a : truth) {
      for (const auto& b : approx) common += a.id == b.id;
    }
    recall += static_cast<double>(common) / k;
  }
  recall /= queries;
  EXPECT_GT(recall, ef_search >= 128 ? 0.9 : 0.6) << "ef=" << ef_search;
}

INSTANTIATE_TEST_SUITE_P(EfSearch, HnswRecall, ::testing::Values(32u, 128u));

TEST(HnswIndexTest, QueryFindsOwnVectorFirst) {
  Rng rng(13);
  const uint32_t n = 500, dim = 8;
  std::vector<float> data(static_cast<size_t>(n) * dim);
  for (auto& x : data) x = rng.UniformFloat() - 0.5f;
  for (uint32_t r = 0; r < n; ++r) {
    float* row = data.data() + static_cast<size_t>(r) * dim;
    Scale(1.0f / L2Norm(row, dim), row, dim);
  }
  HnswIndex index;
  ASSERT_TRUE(index.Build(data.data(), n, dim, HnswOptions{}).ok());
  int self_first = 0;
  for (uint32_t q = 0; q < 50; ++q) {
    const auto res =
        index.Query(data.data() + static_cast<size_t>(q) * dim, 1);
    self_first += !res.empty() && res[0].id == q;
  }
  EXPECT_GT(self_first, 45);  // a normalized vector's best match is itself
}

// The per-thread EpochVisitedSet behind SearchLayer is pure implementation:
// repeating a query on the same index must return identical results (no
// stale visited state can leak across the thread-local set's reuse), and
// QueryBatch results must not depend on how queries land on pool threads.
TEST(HnswIndexTest, QueryIsDeterministicAcrossRepeatsAndThreadCounts) {
  Rng rng(17);
  const uint32_t n = 1200, dim = 12, k = 10;
  std::vector<float> data(static_cast<size_t>(n) * dim);
  for (auto& x : data) x = rng.UniformFloat() - 0.5f;
  for (uint32_t r = 0; r < n; ++r) {
    float* row = data.data() + static_cast<size_t>(r) * dim;
    Scale(1.0f / L2Norm(row, dim), row, dim);
  }
  HnswIndex index;
  ASSERT_TRUE(index.Build(data.data(), n, dim, HnswOptions{}).ok());

  // Same query repeated on one thread: bit-identical result lists. The
  // repeat exercises the reused thread-local visited set back to back.
  const uint32_t queries = 64;
  std::vector<std::vector<ScoredId>> first;
  for (uint32_t q = 0; q < queries; ++q) {
    const float* qv = data.data() + static_cast<size_t>(q) * dim;
    first.push_back(index.Query(qv, k, q));
  }
  for (uint32_t q = 0; q < queries; ++q) {
    const float* qv = data.data() + static_cast<size_t>(q) * dim;
    const auto again = index.Query(qv, k, q);
    ASSERT_EQ(again.size(), first[q].size()) << "query " << q;
    for (size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(again[i].id, first[q][i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(again[i].score, first[q][i].score) << "query " << q;
    }
  }

  // QueryBatch at 1, 2 and 4 threads: identical to the serial answers for
  // every query, whatever thread each one happened to run on.
  std::vector<uint32_t> excludes(queries);
  for (uint32_t q = 0; q < queries; ++q) excludes[q] = q;
  for (uint32_t threads : {1u, 2u, 4u}) {
    std::vector<std::vector<ScoredId>> batch;
    ASSERT_TRUE(index
                    .QueryBatch(data.data(), queries, dim, k, threads, &batch,
                                excludes.data())
                    .ok());
    ASSERT_EQ(batch.size(), queries);
    for (uint32_t q = 0; q < queries; ++q) {
      ASSERT_EQ(batch[q].size(), first[q].size())
          << "threads=" << threads << " query " << q;
      for (size_t i = 0; i < batch[q].size(); ++i) {
        EXPECT_EQ(batch[q][i].id, first[q][i].id)
            << "threads=" << threads << " query " << q << " rank " << i;
        EXPECT_EQ(batch[q][i].score, first[q][i].score)
            << "threads=" << threads << " query " << q;
      }
    }
  }
}

// --------------------------- integration with the engine ---------------------------

TEST(IvfIndexTest, ServesSisgMatchingEngine) {
  DatasetSpec spec;
  spec.catalog.num_items = 600;
  spec.catalog.num_leaf_categories = 12;
  spec.users.num_user_types = 60;
  spec.num_train_sessions = 2000;
  spec.num_test_sessions = 100;
  auto ds = SyntheticDataset::Generate(spec);
  ASSERT_TRUE(ds.ok());
  SisgConfig config;
  config.variant = SisgVariant::kSisgFU;
  config.sgns.dim = 16;
  config.sgns.epochs = 2;
  config.sgns.negatives = 5;
  SisgPipeline pipeline(config);
  auto model = pipeline.Train(*ds);
  ASSERT_TRUE(model.ok());
  auto engine = model->BuildMatchingEngine();
  ASSERT_TRUE(engine.ok());

  IvfIndex index;
  IvfOptions opts;
  opts.kmeans.num_clusters = 16;
  opts.nprobe = 6;
  ASSERT_TRUE(index
                  .Build(engine->DenseCandidateMatrix().data(),
                         engine->num_items(), engine->dim(), opts)
                  .ok());
  // ANN top-10 overlaps brute-force top-10 substantially.
  double recall = 0.0;
  uint32_t queries = 0;
  for (uint32_t item = 0; item < 100; ++item) {
    if (!engine->HasItem(item)) continue;
    const auto exact = engine->Query(item, 10);
    const auto approx = index.Query(engine->QueryRow(item), 10, item);
    if (exact.empty()) continue;
    int common = 0;
    for (const auto& a : exact) {
      for (const auto& b : approx) common += a.id == b.id;
    }
    recall += static_cast<double>(common) / exact.size();
    ++queries;
  }
  ASSERT_GT(queries, 50u);
  EXPECT_GT(recall / queries, 0.5);
  EXPECT_LT(index.ExpectedScanFraction(), 0.5);
}

// --------------------------- IVF persistence ---------------------------

void FlipIndexByte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x10, f);
  std::fclose(f);
}

TEST(IvfIndexTest, SaveLoadRoundTripServesIdentically) {
  Rng rng(11);
  const uint32_t n = 500, dim = 12;
  std::vector<float> data(static_cast<size_t>(n) * dim);
  for (auto& x : data) x = rng.UniformFloat() - 0.5f;
  IvfIndex index;
  IvfOptions opts;
  opts.kmeans.num_clusters = 12;
  opts.nprobe = 4;
  ASSERT_TRUE(index.Build(data.data(), n, dim, opts).ok());

  const std::string path = ::testing::TempDir() + "/ivf_roundtrip.idx";
  std::remove(path.c_str());
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = IvfIndex::Load(path);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ(loaded->num_vectors(), index.num_vectors());
  EXPECT_EQ(loaded->dim(), index.dim());
  EXPECT_EQ(loaded->effective_nprobe(), index.effective_nprobe());
  EXPECT_DOUBLE_EQ(loaded->ExpectedScanFraction(), index.ExpectedScanFraction());
  // Every query routes to the same lists and scores the same rows.
  for (uint32_t q = 0; q < 40; ++q) {
    const float* qv = data.data() + static_cast<size_t>(q) * dim;
    const auto before = index.Query(qv, 10, q);
    const auto after = loaded->Query(qv, 10, q);
    ASSERT_EQ(before.size(), after.size()) << "query " << q;
    for (size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i].id, after[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(before[i].score, after[i].score) << "query " << q;
    }
  }
  std::remove(path.c_str());
}

TEST(IvfIndexTest, CorruptedArtifactIsDataLoss) {
  Rng rng(13);
  const uint32_t n = 100, dim = 8;
  std::vector<float> data(static_cast<size_t>(n) * dim);
  for (auto& x : data) x = rng.UniformFloat() - 0.5f;
  IvfIndex index;
  IvfOptions opts;
  opts.kmeans.num_clusters = 4;
  ASSERT_TRUE(index.Build(data.data(), n, dim, opts).ok());

  const std::string path = ::testing::TempDir() + "/ivf_corrupt.idx";
  std::remove(path.c_str());
  ASSERT_TRUE(index.Save(path).ok());
  FlipIndexByte(path, static_cast<long>(kArtifactHeaderBytes) + 200);
  EXPECT_EQ(IvfIndex::Load(path).status().code(), StatusCode::kDataLoss);

  // An unbuilt index refuses to save rather than writing an empty artifact.
  IvfIndex empty;
  EXPECT_EQ(empty.Save(path).code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// --------------------------- engine ANN degradation ---------------------------

class MatchingEngineAnnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(21);
    const uint32_t n = 400, dim = 8;
    std::vector<float> in(static_cast<size_t>(n) * dim);
    for (auto& x : in) x = rng.UniformFloat() + 0.1f;  // no zero rows
    ASSERT_TRUE(engine_
                    .Build(std::move(in), {}, n, dim,
                           SimilarityMode::kCosineInput)
                    .ok());
  }

  IvfOptions FullProbe() const {
    IvfOptions opts;
    opts.kmeans.num_clusters = 8;
    opts.nprobe = 8;  // scan everything: ANN results == brute force
    return opts;
  }

  MatchingEngine engine_;
};

TEST_F(MatchingEngineAnnTest, EnableIvfServesIdenticalResultsAtFullProbe) {
  const auto brute = engine_.Query(3, 10);
  ASSERT_TRUE(engine_.EnableIvf(FullProbe()).ok());
  EXPECT_EQ(engine_.ann_backend(), AnnBackend::kIvf);
  EXPECT_FALSE(engine_.degraded());
  const auto ann = engine_.Query(3, 10);
  ASSERT_EQ(ann.size(), brute.size());
  for (size_t i = 0; i < ann.size(); ++i) EXPECT_EQ(ann[i].id, brute[i].id);
}

TEST_F(MatchingEngineAnnTest, FailedEnableDegradesToBruteForce) {
  const auto before = engine_.Query(5, 10);
  IvfOptions bad = FullProbe();
  bad.nprobe = 0;  // rejected by IvfIndex::Build
  EXPECT_FALSE(engine_.EnableIvf(bad).ok());
  EXPECT_TRUE(engine_.degraded());
  EXPECT_EQ(engine_.ann_backend(), AnnBackend::kBruteForce);
  // The query path never goes down with the index.
  const auto after = engine_.Query(5, 10);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) EXPECT_EQ(after[i].id, before[i].id);

  HnswOptions bad_hnsw;
  bad_hnsw.M = 1;  // rejected by HnswIndex::Build
  EXPECT_FALSE(engine_.EnableHnsw(bad_hnsw).ok());
  EXPECT_EQ(engine_.ann_backend(), AnnBackend::kBruteForce);
  EXPECT_FALSE(engine_.Query(5, 10).empty());
}

TEST_F(MatchingEngineAnnTest, SaveAndReloadIvfRoundTrip) {
  const std::string path = ::testing::TempDir() + "/engine_ivf.idx";
  std::remove(path.c_str());
  // Saving before any IVF index exists is an error, not a crash.
  EXPECT_EQ(engine_.SaveIvf(path).code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(engine_.EnableIvf(FullProbe()).ok());
  ASSERT_TRUE(engine_.SaveIvf(path).ok());
  const auto built = engine_.Query(7, 10);

  // A second engine over the same candidates serves from the saved index.
  Rng rng(21);
  const uint32_t n = 400, dim = 8;
  std::vector<float> in(static_cast<size_t>(n) * dim);
  for (auto& x : in) x = rng.UniformFloat() + 0.1f;
  MatchingEngine other;
  ASSERT_TRUE(
      other.Build(std::move(in), {}, n, dim, SimilarityMode::kCosineInput)
          .ok());
  ASSERT_TRUE(other.EnableIvfFromFile(path).ok());
  EXPECT_EQ(other.ann_backend(), AnnBackend::kIvf);
  EXPECT_FALSE(other.degraded());
  const auto reloaded = other.Query(7, 10);
  ASSERT_EQ(reloaded.size(), built.size());
  for (size_t i = 0; i < reloaded.size(); ++i) {
    EXPECT_EQ(reloaded[i].id, built[i].id);
  }
  std::remove(path.c_str());
}

TEST_F(MatchingEngineAnnTest, CorruptIvfFileFallsBackToBruteForce) {
  const std::string path = ::testing::TempDir() + "/engine_ivf_bad.idx";
  std::remove(path.c_str());
  ASSERT_TRUE(engine_.EnableIvf(FullProbe()).ok());
  ASSERT_TRUE(engine_.SaveIvf(path).ok());
  FlipIndexByte(path, static_cast<long>(kArtifactHeaderBytes) + 48);

  Rng rng(21);
  const uint32_t n = 400, dim = 8;
  std::vector<float> in(static_cast<size_t>(n) * dim);
  for (auto& x : in) x = rng.UniformFloat() + 0.1f;
  MatchingEngine other;
  ASSERT_TRUE(
      other.Build(std::move(in), {}, n, dim, SimilarityMode::kCosineInput)
          .ok());
  const auto brute = other.Query(9, 10);
  EXPECT_EQ(other.EnableIvfFromFile(path).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(other.degraded());
  EXPECT_EQ(other.ann_backend(), AnnBackend::kBruteForce);
  const auto after = other.Query(9, 10);
  ASSERT_EQ(after.size(), brute.size());
  for (size_t i = 0; i < after.size(); ++i) EXPECT_EQ(after[i].id, brute[i].id);
  std::remove(path.c_str());
}

TEST_F(MatchingEngineAnnTest, MismatchedIvfFileIsFailedPrecondition) {
  // Index built for a different engine shape (dim 4, not 8).
  Rng rng(33);
  const uint32_t n = 50, dim = 4;
  std::vector<float> small(static_cast<size_t>(n) * dim);
  for (auto& x : small) x = rng.UniformFloat() + 0.1f;
  IvfIndex index;
  IvfOptions opts;
  opts.kmeans.num_clusters = 2;
  ASSERT_TRUE(index.Build(small.data(), n, dim, opts).ok());
  const std::string path = ::testing::TempDir() + "/engine_ivf_shape.idx";
  std::remove(path.c_str());
  ASSERT_TRUE(index.Save(path).ok());

  EXPECT_EQ(engine_.EnableIvfFromFile(path).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(engine_.degraded());
  EXPECT_EQ(engine_.ann_backend(), AnnBackend::kBruteForce);
  EXPECT_FALSE(engine_.Query(2, 5).empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sisg
