#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/cold_start.h"
#include "core/matching_engine.h"
#include "core/pipeline.h"
#include "core/sisg_model.h"
#include "datagen/dataset.h"
#include "eval/hitrate.h"

namespace sisg {
namespace {

// --------------------------- matching engine ---------------------------

TEST(MatchingEngineTest, RejectsBadShapes) {
  MatchingEngine e;
  EXPECT_FALSE(e.Build({}, {}, 0, 4, SimilarityMode::kCosineInput).ok());
  EXPECT_FALSE(
      e.Build(std::vector<float>(7), {}, 2, 4, SimilarityMode::kCosineInput).ok());
  EXPECT_FALSE(e.Build(std::vector<float>(8), {}, 2, 4,
                       SimilarityMode::kDirectionalInOut)
                   .ok());
}

TEST(MatchingEngineTest, CosineRetrievalOrdersByAngle) {
  // 4 items in 2-D: query 0 = (1,0); 1 = (1,0.1); 2 = (0,1); 3 = zero row.
  std::vector<float> in = {1, 0, 1, 0.1f, 0, 1, 0, 0};
  MatchingEngine e;
  ASSERT_TRUE(e.Build(in, {}, 4, 2, SimilarityMode::kCosineInput).ok());
  EXPECT_TRUE(e.HasItem(0));
  EXPECT_FALSE(e.HasItem(3));
  const auto res = e.Query(0, 10);
  ASSERT_EQ(res.size(), 2u);  // item 3 untrained, query excluded
  EXPECT_EQ(res[0].id, 1u);
  EXPECT_EQ(res[1].id, 2u);
  EXPECT_NEAR(res[0].score, std::cos(std::atan2(0.1, 1.0)), 1e-5);
  EXPECT_TRUE(e.Query(3, 5).empty());
  EXPECT_TRUE(e.Query(99, 5).empty());
}

TEST(MatchingEngineTest, DirectionalUsesOutputRows) {
  // in(0) = (1,0). out(1) = (1,0) -> follows 0; out(2) = (-1,0).
  std::vector<float> in = {1, 0, 0.5f, 0.5f, 0.5f, -0.5f};
  std::vector<float> out = {0, 0, 1, 0, -1, 0};
  MatchingEngine e;
  ASSERT_TRUE(e.Build(in, out, 3, 2, SimilarityMode::kDirectionalInOut).ok());
  const auto res = e.Query(0, 10);
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].id, 1u);
  EXPECT_EQ(res[1].id, 2u);
  EXPECT_GT(res[0].score, 0.0f);
  EXPECT_LT(res[1].score, 0.0f);
  // Directional is asymmetric by construction: score(0->1) != score(1->0).
  const auto back = e.Query(1, 10);
  const auto to0 = std::find_if(back.begin(), back.end(),
                                [](const ScoredId& s) { return s.id == 0; });
  ASSERT_NE(to0, back.end());
  EXPECT_NE(res[0].score, to0->score);
}

TEST(MatchingEngineTest, QueryVectorMatchesQuery) {
  std::vector<float> in = {1, 0, 0, 1, 1, 1};
  MatchingEngine e;
  ASSERT_TRUE(e.Build(in, {}, 3, 2, SimilarityMode::kCosineInput).ok());
  std::vector<float> q = {2, 0};  // same direction as item 0
  const auto res = e.QueryVector(q.data(), 3);
  ASSERT_EQ(res.size(), 3u);  // QueryVector does not exclude anything
  EXPECT_EQ(res[0].id, 0u);
}

// Property: Query() must agree with a naive reference ranking for both
// modes across shapes and seeds.
class EngineReference
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, int>> {};

TEST_P(EngineReference, MatchesNaiveRanking) {
  const auto [n, d, mode_int] = GetParam();
  const SimilarityMode mode = static_cast<SimilarityMode>(mode_int);
  Rng rng(n * 31 + d);
  std::vector<float> in(static_cast<size_t>(n) * d), out(in.size());
  for (auto& x : in) x = rng.UniformFloat() - 0.5f;
  for (auto& x : out) x = rng.UniformFloat() - 0.5f;

  MatchingEngine engine;
  ASSERT_TRUE(engine
                  .Build(in, mode == SimilarityMode::kDirectionalInOut
                                 ? out
                                 : std::vector<float>{},
                         n, d, mode)
                  .ok());

  // Naive reference built from the raw matrices.
  auto naive_score = [&](uint32_t q, uint32_t c) {
    if (mode == SimilarityMode::kCosineInput) {
      return CosineSimilarity(in.data() + static_cast<size_t>(q) * d,
                              in.data() + static_cast<size_t>(c) * d, d);
    }
    // Directional: in(q) . out(c)/||out(c)|| (the engine normalizes
    // candidate rows).
    const float* qv = in.data() + static_cast<size_t>(q) * d;
    const float* cv = out.data() + static_cast<size_t>(c) * d;
    const float norm = L2Norm(cv, d);
    return norm > 0 ? Dot(qv, cv, d) / norm : 0.0f;
  };
  for (uint32_t q : {0u, n / 2, n - 1}) {
    const auto res = engine.Query(q, 5);
    ASSERT_EQ(res.size(), std::min<size_t>(5, n - 1));
    // Returned scores match the reference, descend, and are the global
    // maxima.
    float worst = res.back().score;
    for (size_t i = 0; i < res.size(); ++i) {
      EXPECT_NEAR(res[i].score, naive_score(q, res[i].id), 1e-4);
      if (i + 1 < res.size()) {
        EXPECT_GE(res[i].score, res[i + 1].score);
      }
    }
    int better_than_worst = 0;
    for (uint32_t c = 0; c < n; ++c) {
      if (c != q && naive_score(q, c) > worst + 1e-4) ++better_than_worst;
    }
    EXPECT_LE(better_than_worst, static_cast<int>(res.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineReference,
    ::testing::Values(std::make_tuple(20u, 4u, 0), std::make_tuple(20u, 4u, 1),
                      std::make_tuple(200u, 16u, 0),
                      std::make_tuple(200u, 16u, 1),
                      std::make_tuple(64u, 32u, 1)));

// --------------------------- pipeline + model ---------------------------

class PipelineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetSpec spec;
    spec.catalog.num_items = 500;
    spec.catalog.num_leaf_categories = 10;
    spec.catalog.num_shops = 40;
    spec.catalog.num_brands = 30;
    spec.users.num_user_types = 60;
    spec.num_train_sessions = 2500;
    spec.num_test_sessions = 300;
    auto ds = SyntheticDataset::Generate(spec);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<SyntheticDataset>(std::move(ds).value());
  }

  SisgConfig FastConfig(SisgVariant variant) const {
    SisgConfig c;
    c.variant = variant;
    c.sgns.dim = 24;
    c.sgns.epochs = 4;
    c.sgns.negatives = 5;
    return c;
  }

  std::unique_ptr<SyntheticDataset> dataset_;
};

SisgConfig WithVariant(SisgVariant v) {
  SisgConfig c;
  c.variant = v;
  return c;
}

TEST_F(PipelineFixture, VariantFlagsAreConsistent) {
  EXPECT_FALSE(WithVariant(SisgVariant::kSgns).UseItemSi());
  EXPECT_FALSE(WithVariant(SisgVariant::kSgns).UseUserTypes());
  EXPECT_TRUE(WithVariant(SisgVariant::kSisgF).UseItemSi());
  EXPECT_FALSE(WithVariant(SisgVariant::kSisgF).UseUserTypes());
  EXPECT_TRUE(WithVariant(SisgVariant::kSisgU).UseUserTypes());
  EXPECT_FALSE(WithVariant(SisgVariant::kSisgU).UseItemSi());
  EXPECT_TRUE(WithVariant(SisgVariant::kSisgFUD).Directional());
  EXPECT_FALSE(WithVariant(SisgVariant::kSisgFU).Directional());
  EXPECT_STREQ(SisgVariantName(SisgVariant::kSisgFUD), "SISG-F-U-D");
}

TEST_F(PipelineFixture, TrainsEveryVariant) {
  for (SisgVariant v :
       {SisgVariant::kSgns, SisgVariant::kSisgF, SisgVariant::kSisgU,
        SisgVariant::kSisgFU, SisgVariant::kSisgFUD}) {
    SisgPipeline pipeline(FastConfig(v));
    PipelineReport report;
    auto model = pipeline.Train(*dataset_, &report);
    ASSERT_TRUE(model.ok()) << SisgVariantName(v);
    EXPECT_GT(report.vocab_size, 0u);
    EXPECT_GT(report.train.pairs_trained, 0u);
    EXPECT_EQ(model->dim(), 24u);
    // Vocab composition matches the variant.
    const bool has_si = model->vocab().CountOfClass(TokenClass::kItemSi) > 0;
    const bool has_ut = model->vocab().CountOfClass(TokenClass::kUserType) > 0;
    EXPECT_EQ(has_si, WithVariant(v).UseItemSi());
    EXPECT_EQ(has_ut, WithVariant(v).UseUserTypes());
  }
}

TEST_F(PipelineFixture, DistributedPipelineProducesUsableModel) {
  SisgConfig c = FastConfig(SisgVariant::kSisgFU);
  c.distributed = true;
  c.dist.num_workers = 3;
  SisgPipeline pipeline(c);
  PipelineReport report;
  auto model = pipeline.Train(*dataset_, &report);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT(report.comm.local_pairs + report.comm.remote_pairs +
                report.comm.hot_pairs,
            0u);
  auto engine = model->BuildMatchingEngine();
  ASSERT_TRUE(engine.ok());
  const auto res = EvaluateHitRate(
      dataset_->test_sessions(),
      [&](uint32_t item, uint32_t k) { return engine->Query(item, k); }, {20});
  EXPECT_GT(res.hit_rate[0], 0.03);
}

TEST_F(PipelineFixture, ModelSaveLoadRoundTrip) {
  SisgPipeline pipeline(FastConfig(SisgVariant::kSisgFU));
  auto model = pipeline.Train(*dataset_);
  ASSERT_TRUE(model.ok());
  const std::string prefix = ::testing::TempDir() + "/sisg_model";
  ASSERT_TRUE(model->Save(prefix).ok());

  TokenSpace ts = TokenSpace::Create(&dataset_->catalog(), &dataset_->users());
  auto loaded = SisgModel::Load(prefix, model->config(), ts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->vocab().size(), model->vocab().size());
  EXPECT_EQ(loaded->dim(), model->dim());
  // Same retrieval results.
  auto e1 = model->BuildMatchingEngine();
  auto e2 = loaded->BuildMatchingEngine();
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  const auto r1 = e1->Query(5, 10);
  const auto r2 = e2->Query(5, 10);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i].id, r2[i].id);
  std::remove((prefix + ".vocab").c_str());
  std::remove((prefix + ".emb").c_str());
}

TEST_F(PipelineFixture, ItemMatricesZeroForUntrainedItems) {
  SisgConfig c = FastConfig(SisgVariant::kSgns);
  c.min_count = 3;  // force some items out of the vocab
  SisgPipeline pipeline(c);
  auto model = pipeline.Train(*dataset_);
  ASSERT_TRUE(model.ok());
  const auto in = model->ItemInputMatrix();
  const uint32_t d = model->dim();
  int zero_rows = 0;
  for (uint32_t item = 0; item < dataset_->catalog().num_items(); ++item) {
    const bool in_vocab =
        model->InputOfToken(model->token_space().ItemToken(item)) != nullptr;
    const float norm = L2Norm(in.data() + static_cast<size_t>(item) * d, d);
    EXPECT_EQ(in_vocab, norm > 0.0f) << "item " << item;
    zero_rows += norm == 0.0f;
  }
  EXPECT_GT(zero_rows, 0);
}

// --------------------------- cold start ---------------------------

TEST_F(PipelineFixture, ColdItemInferenceFollowsEq6) {
  SisgPipeline pipeline(FastConfig(SisgVariant::kSisgFU));
  auto model = pipeline.Train(*dataset_);
  ASSERT_TRUE(model.ok());

  const ItemMeta& meta = dataset_->catalog().meta(7);
  std::vector<float> v;
  ASSERT_TRUE(InferColdItemVector(*model, meta, &v).ok());
  ASSERT_EQ(v.size(), model->dim());
  // Hand-computed sum of available SI vectors.
  std::vector<float> expected(model->dim(), 0.0f);
  for (ItemFeatureKind kind : AllItemFeatureKinds()) {
    const float* si = model->InputOfToken(
        model->token_space().SiToken(kind, meta.Feature(kind)));
    if (si != nullptr) Axpy(1.0f, si, expected.data(), model->dim());
  }
  for (uint32_t d = 0; d < model->dim(); ++d) EXPECT_FLOAT_EQ(v[d], expected[d]);
  EXPECT_GT(L2Norm(v.data(), model->dim()), 0.0f);
}

TEST_F(PipelineFixture, ColdItemRetrievalPrefersOwnCategory) {
  SisgPipeline pipeline(FastConfig(SisgVariant::kSisgFU));
  auto model = pipeline.Train(*dataset_);
  ASSERT_TRUE(model.ok());
  auto engine = model->BuildMatchingEngine();
  ASSERT_TRUE(engine.ok());

  int same_leaf = 0, total = 0;
  for (uint32_t item = 0; item < 60; ++item) {
    std::vector<float> v;
    if (!InferColdItemVector(*model, dataset_->catalog().meta(item), &v).ok()) {
      continue;
    }
    for (const auto& r : engine->QueryVector(v.data(), 10)) {
      same_leaf += dataset_->catalog().meta(r.id).leaf_category ==
                   dataset_->catalog().meta(item).leaf_category;
      ++total;
    }
  }
  ASSERT_GT(total, 100);
  // SI-sum vectors retrieve within the right category far above chance (10%).
  EXPECT_GT(static_cast<double>(same_leaf) / total, 0.5);
}

TEST_F(PipelineFixture, ColdUserVectorAveragesMatchingTypes) {
  SisgPipeline pipeline(FastConfig(SisgVariant::kSisgFU));
  auto model = pipeline.Train(*dataset_);
  ASSERT_TRUE(model.ok());
  std::vector<float> v;
  ASSERT_TRUE(
      InferColdUserVector(*model, dataset_->users(), 0, 2, -1, &v).ok());
  EXPECT_GT(L2Norm(v.data(), model->dim()), 0.0f);
  // Wildcard-everything also works.
  ASSERT_TRUE(
      InferColdUserVector(*model, dataset_->users(), -1, -1, -1, &v).ok());
}

TEST_F(PipelineFixture, ColdStartFailsWithoutSiVectors) {
  // An SGNS model has no SI or user-type vectors at all.
  SisgPipeline pipeline(FastConfig(SisgVariant::kSgns));
  auto model = pipeline.Train(*dataset_);
  ASSERT_TRUE(model.ok());
  std::vector<float> v;
  EXPECT_EQ(
      InferColdItemVector(*model, dataset_->catalog().meta(0), &v).code(),
      StatusCode::kNotFound);
  EXPECT_EQ(InferColdUserVector(*model, dataset_->users(), 0, -1, -1, &v).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(InferColdItemVector(*model, dataset_->catalog().meta(0), nullptr)
                   .ok());
}

}  // namespace
}  // namespace sisg
