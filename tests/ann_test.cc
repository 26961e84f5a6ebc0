// Tests of the approximate-nearest-neighbor serving layer: the k-means
// quantizer, the IVF and HNSW indexes (recall against brute force), and the
// engine's IVF-PQ path with its degradation contract.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

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

/// A single-thread (so deterministic) SISG-F-U model over 600 items.
StatusOr<SisgModel> TrainSmallModel(uint32_t dim) {
  DatasetSpec spec;
  spec.catalog.num_items = 600;
  spec.catalog.num_leaf_categories = 12;
  spec.users.num_user_types = 60;
  spec.num_train_sessions = 2000;
  spec.num_test_sessions = 100;
  SISG_ASSIGN_OR_RETURN(SyntheticDataset ds, SyntheticDataset::Generate(spec));
  SisgConfig config;
  config.variant = SisgVariant::kSisgFU;
  config.sgns.dim = dim;
  config.sgns.epochs = 2;
  config.sgns.negatives = 5;
  SisgPipeline pipeline(config);
  return pipeline.Train(ds);
}

TEST(IvfIndexTest, ServesSisgMatchingEngine) {
  auto model = TrainSmallModel(16);
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
  // A query probes fewer than half of the lists.
  EXPECT_LT(2 * index.effective_nprobe(), opts.kmeans.num_clusters);
}

// --------------------------- engine IVF-PQ ---------------------------

// The engine's only ANN form, as `--quant pq` installs it (default IVF and
// PQ options) over a trained model.
TEST(MatchingEngineIvfPqTest, ServesTrainedEngineLikeBruteForce) {
  auto model = TrainSmallModel(32);
  ASSERT_TRUE(model.ok());
  auto brute = model->BuildMatchingEngine();
  auto engine = model->BuildMatchingEngine();
  ASSERT_TRUE(brute.ok() && engine.ok());
  ASSERT_TRUE(engine->EnableIvfPq(IvfOptions{}, PqOptions{}).ok());

  const uint32_t k = 10;
  std::vector<uint32_t> items;
  for (uint32_t item = 0; item < engine->num_items(); ++item) {
    if (engine->HasItem(item)) items.push_back(item);
  }
  ASSERT_GT(items.size(), 300u);
  const std::vector<uint32_t> ks(items.size(), k);
  const auto batch =
      engine->QueryBatchCoalesced(items.data(), ks.data(), items.size());
  double recall = 0.0;
  for (size_t i = 0; i < items.size(); ++i) {
    const auto got = engine->Query(items[i], k);
    ASSERT_LE(got.size(), k);
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_NE(got[r].id, items[i]) << "item " << items[i];
      if (r > 0) {
        EXPECT_GE(got[r - 1].score, got[r].score) << "item " << items[i];
      }
    }
    ASSERT_EQ(batch[i].size(), got.size()) << "item " << items[i];
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(batch[i][r].id, got[r].id) << "item " << items[i];
      EXPECT_EQ(std::bit_cast<uint32_t>(batch[i][r].score),
                std::bit_cast<uint32_t>(got[r].score))
          << "item " << items[i];
    }
    const auto exact = brute->Query(items[i], k);
    int common = 0;
    for (const auto& a : exact) {
      for (const auto& b : got) common += a.id == b.id;
    }
    recall += static_cast<double>(common) / k;
  }
  recall /= static_cast<double>(items.size());
  // Measured 0.998 at the scalar, avx2 and avx512vnni dispatch levels.
  EXPECT_GE(recall, 0.98) << "IVF-PQ recall@10 against fp32 brute force";
}

// A failed enable returns its error and leaves the engine as it was: a
// never-accelerated engine keeps its brute-force answers, and an engine
// serving IVF-PQ keeps the index it had, answering bit for bit as before.
TEST(MatchingEngineIvfPqTest, FailedEnableLeavesEngineUnchanged) {
  Rng rng(21);
  const uint32_t n = 400, dim = 8;
  std::vector<float> in(static_cast<size_t>(n) * dim);
  for (auto& x : in) x = rng.UniformFloat() + 0.1f;  // no zero rows
  MatchingEngine brute, indexed;
  ASSERT_TRUE(brute.Build(in, {}, n, dim, SimilarityMode::kCosineInput).ok());
  ASSERT_TRUE(
      indexed.Build(in, {}, n, dim, SimilarityMode::kCosineInput).ok());
  ASSERT_TRUE(indexed.EnableIvfPq(IvfOptions{}, PqOptions{}).ok());

  const auto answers = [&](const MatchingEngine& engine) {
    std::vector<std::vector<ScoredId>> out;
    for (uint32_t item = 0; item < n; item += 7) {
      out.push_back(engine.Query(item, 10));
    }
    return out;
  };
  IvfOptions bad_ivf;
  bad_ivf.nprobe = 0;  // rejected by IvfIndex::Build
  PqOptions bad_pq;
  bad_pq.ksub = 0;  // rejected by PqCodebook::Train
  for (MatchingEngine* engine : {&brute, &indexed}) {
    const auto before = answers(*engine);
    for (const bool fail_ivf : {true, false}) {
      const Status st = fail_ivf ? engine->EnableIvfPq(bad_ivf, PqOptions{})
                                 : engine->EnableIvfPq(IvfOptions{}, bad_pq);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
      EXPECT_EQ(engine->quant_mode(), QuantMode::kFp32);
      const auto after = answers(*engine);
      ASSERT_EQ(after.size(), before.size());
      for (size_t q = 0; q < after.size(); ++q) {
        ASSERT_EQ(after[q].size(), before[q].size()) << "query " << q;
        for (size_t r = 0; r < after[q].size(); ++r) {
          ASSERT_EQ(after[q][r].id, before[q][r].id)
              << "query " << q << " fail_ivf=" << fail_ivf;
          ASSERT_EQ(std::bit_cast<uint32_t>(after[q][r].score),
                    std::bit_cast<uint32_t>(before[q][r].score))
              << "query " << q << " fail_ivf=" << fail_ivf;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sisg
