#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/math_util.h"
#include "datagen/dataset.h"
#include "eval/ctr_simulator.h"
#include "eval/hitrate.h"
#include "eval/pca.h"
#include "eval/tsne.h"
#include "obs/table_printer.h"

namespace sisg {
namespace {

// --------------------------- hit rate ---------------------------

Session MakeSession(std::vector<uint32_t> items) {
  Session s;
  s.items = std::move(items);
  return s;
}

TEST(HitRateTest, ExactComputation) {
  // Retrieval always returns [1, 2, 3].
  RetrievalFn fn = [](uint32_t, uint32_t k) {
    std::vector<ScoredId> out = {{3.0f, 1}, {2.0f, 2}, {1.0f, 3}};
    out.resize(std::min<size_t>(k, out.size()));
    return out;
  };
  std::vector<Session> test = {
      MakeSession({9, 9, 1}),  // truth 1 at rank 0
      MakeSession({9, 9, 3}),  // truth 3 at rank 2
      MakeSession({9, 9, 7}),  // miss
  };
  const auto res = EvaluateHitRate(test, fn, {1, 3});
  EXPECT_EQ(res.num_queries, 3u);
  EXPECT_EQ(res.num_covered, 3u);
  EXPECT_NEAR(res.hit_rate[0], 1.0 / 3, 1e-9);
  EXPECT_NEAR(res.hit_rate[1], 2.0 / 3, 1e-9);
  EXPECT_NEAR(res.mrr, (1.0 + 1.0 / 3) / 3, 1e-9);
}

TEST(HitRateTest, NdcgDiscountsByRank) {
  RetrievalFn fn = [](uint32_t, uint32_t k) {
    std::vector<ScoredId> out = {{3.0f, 1}, {2.0f, 2}, {1.0f, 3}};
    out.resize(std::min<size_t>(k, out.size()));
    return out;
  };
  std::vector<Session> test = {
      MakeSession({9, 9, 1}),  // rank 0 -> gain 1/log2(2) = 1
      MakeSession({9, 9, 3}),  // rank 2 -> gain 1/log2(4) = 0.5
  };
  const auto res = EvaluateHitRate(test, fn, {3});
  ASSERT_EQ(res.ndcg.size(), 1u);
  EXPECT_NEAR(res.ndcg[0], (1.0 + 0.5) / 2, 1e-9);
  // NDCG is bounded by the hit rate.
  EXPECT_LE(res.ndcg[0], res.hit_rate[0] + 1e-12);
}

TEST(HitRateTest, EmptyRetrievalCountsAsMiss) {
  RetrievalFn fn = [](uint32_t, uint32_t) { return std::vector<ScoredId>{}; };
  std::vector<Session> test = {MakeSession({1, 2, 3})};
  const auto res = EvaluateHitRate(test, fn, {10});
  EXPECT_EQ(res.num_queries, 1u);
  EXPECT_EQ(res.num_covered, 0u);
  EXPECT_DOUBLE_EQ(res.hit_rate[0], 0.0);
}

TEST(HitRateTest, ShortSessionsSkipped) {
  RetrievalFn fn = [](uint32_t, uint32_t) {
    return std::vector<ScoredId>{{1.0f, 0}};
  };
  std::vector<Session> test = {MakeSession({5})};
  const auto res = EvaluateHitRate(test, fn, {1});
  EXPECT_EQ(res.num_queries, 0u);
}

TEST(HitRateTest, UsesSecondToLastAsQuery) {
  RetrievalFn fn = [](uint32_t item, uint32_t) {
    // Only query 42 retrieves the truth 7.
    if (item == 42) return std::vector<ScoredId>{{1.0f, 7}};
    return std::vector<ScoredId>{{1.0f, 999}};
  };
  const auto res = EvaluateHitRate({MakeSession({1, 42, 7})}, fn, {1});
  EXPECT_DOUBLE_EQ(res.hit_rate[0], 1.0);
}

// --------------------------- CTR simulator ---------------------------

class CtrFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetSpec spec;
    spec.catalog.num_items = 500;
    spec.catalog.num_leaf_categories = 10;
    spec.users.num_user_types = 60;
    spec.num_train_sessions = 1500;
    spec.num_test_sessions = 100;
    auto ds = SyntheticDataset::Generate(spec);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<SyntheticDataset>(std::move(ds).value());
  }
  std::unique_ptr<SyntheticDataset> dataset_;
};

TEST_F(CtrFixture, GroundTruthOracleBeatsRandomRecommender) {
  CtrSimOptions opts;
  opts.num_days = 3;
  opts.impressions_per_day = 3000;

  // Oracle: recommend the ground-truth successors.
  const SessionGenerator& gen = dataset_->generator();
  RetrievalFn oracle = [&](uint32_t item, uint32_t k) {
    std::vector<ScoredId> out;
    const auto& succ = gen.Successors(item);
    for (size_t i = 0; i < succ.size() && i < k; ++i) {
      out.push_back({1.0f - 0.01f * i, succ[i]});
    }
    return out;
  };
  Rng rng(5);
  const uint32_t n = dataset_->catalog().num_items();
  RetrievalFn random_rec = [&](uint32_t, uint32_t k) {
    std::vector<ScoredId> out;
    for (uint32_t i = 0; i < k; ++i) {
      out.push_back({1.0f, static_cast<uint32_t>(rng.UniformU64(n))});
    }
    return out;
  };
  const CtrSeries oracle_ctr = SimulateCtr(*dataset_, oracle, opts);
  const CtrSeries random_ctr = SimulateCtr(*dataset_, random_rec, opts);
  ASSERT_EQ(oracle_ctr.daily_ctr.size(), 3u);
  EXPECT_GT(oracle_ctr.mean_ctr, 0.3);
  EXPECT_LT(random_ctr.mean_ctr, 0.05);
  EXPECT_GT(oracle_ctr.mean_ctr, 3 * random_ctr.mean_ctr);
}

TEST_F(CtrFixture, PairedArmsSeeSameImpressions) {
  CtrSimOptions opts;
  opts.num_days = 2;
  opts.impressions_per_day = 1000;
  opts.daily_noise = 0.0;
  RetrievalFn empty = [](uint32_t, uint32_t) { return std::vector<ScoredId>{}; };
  const CtrSeries a = SimulateCtr(*dataset_, empty, opts);
  const CtrSeries b = SimulateCtr(*dataset_, empty, opts);
  // Identical arms -> identical CTR series (paired simulation).
  EXPECT_EQ(a.daily_ctr, b.daily_ctr);
  EXPECT_DOUBLE_EQ(a.mean_ctr, 0.0);
}

// --------------------------- PCA ---------------------------

TEST(PcaTest, RecoversDominantDirection) {
  Rng rng(1);
  const uint32_t n = 300, d = 5;
  std::vector<double> data(n * d);
  for (uint32_t i = 0; i < n; ++i) {
    const double t = rng.Gaussian() * 10.0;  // dominant axis 0
    data[i * d + 0] = t;
    for (uint32_t j = 1; j < d; ++j) data[i * d + j] = rng.Gaussian() * 0.1;
  }
  auto proj = PcaProject(data, n, d, 1);
  ASSERT_TRUE(proj.ok());
  // Projection variance should be close to the dominant variance (100).
  std::vector<double> xs(proj->begin(), proj->end());
  const MeanVar mv = ComputeMeanVar(xs);
  EXPECT_GT(mv.var, 50.0);
}

TEST(PcaTest, ComponentsAreUncorrelated) {
  Rng rng(2);
  const uint32_t n = 200, d = 6;
  std::vector<double> data(n * d);
  for (auto& x : data) x = rng.Gaussian();
  auto proj = PcaProject(data, n, d, 2);
  ASSERT_TRUE(proj.ok());
  double c01 = 0, m0 = 0, m1 = 0;
  for (uint32_t i = 0; i < n; ++i) {
    m0 += (*proj)[i * 2];
    m1 += (*proj)[i * 2 + 1];
  }
  m0 /= n;
  m1 /= n;
  double v0 = 0, v1 = 0;
  for (uint32_t i = 0; i < n; ++i) {
    c01 += ((*proj)[i * 2] - m0) * ((*proj)[i * 2 + 1] - m1);
    v0 += std::pow((*proj)[i * 2] - m0, 2);
    v1 += std::pow((*proj)[i * 2 + 1] - m1, 2);
  }
  EXPECT_LT(std::abs(c01) / std::sqrt(v0 * v1), 0.15);
}

TEST(PcaTest, RejectsBadShapes) {
  EXPECT_FALSE(PcaProject({}, 0, 3, 1).ok());
  EXPECT_FALSE(PcaProject(std::vector<double>(6), 2, 3, 4).ok());
  EXPECT_FALSE(PcaProject(std::vector<double>(5), 2, 3, 1).ok());
}

// --------------------------- t-SNE + silhouette ---------------------------

TEST(TsneTest, SeparatesTwoGaussianBlobs) {
  Rng rng(3);
  const uint32_t n = 120, d = 10;
  std::vector<double> data(n * d);
  std::vector<int> labels(n);
  for (uint32_t i = 0; i < n; ++i) {
    labels[i] = i < n / 2 ? 0 : 1;
    const double offset = labels[i] == 0 ? -4.0 : 4.0;
    for (uint32_t j = 0; j < d; ++j) {
      data[i * d + j] = rng.Gaussian() * 0.3 + (j == 0 ? offset : 0.0);
    }
  }
  TsneOptions opts;
  opts.perplexity = 15;
  opts.iterations = 200;
  auto y = TsneEmbed(data, n, d, opts);
  ASSERT_TRUE(y.ok()) << y.status().ToString();
  ASSERT_EQ(y->size(), n * 2u);
  const double sil = SilhouetteScore(*y, n, 2, labels);
  EXPECT_GT(sil, 0.5);  // clear separation survives the embedding
}

TEST(TsneTest, RejectsBadInput) {
  EXPECT_FALSE(TsneEmbed({}, 0, 3).ok());
  EXPECT_FALSE(TsneEmbed(std::vector<double>(5), 2, 3).ok());
  TsneOptions opts;
  opts.perplexity = 1000;
  EXPECT_FALSE(TsneEmbed(std::vector<double>(30), 10, 3, opts).ok());
}

TEST(SilhouetteTest, PerfectAndMixedClusters) {
  // Two tight, well-separated clusters in 1-D.
  std::vector<double> points = {0.0, 0.1, 0.2, 10.0, 10.1, 10.2};
  std::vector<int> good = {0, 0, 0, 1, 1, 1};
  std::vector<int> bad = {0, 1, 0, 1, 0, 1};
  const double s_good = SilhouetteScore(points, 6, 1, good);
  const double s_bad = SilhouetteScore(points, 6, 1, bad);
  EXPECT_GT(s_good, 0.9);
  EXPECT_LT(s_bad, 0.0);
  // Degenerate cases.
  EXPECT_DOUBLE_EQ(SilhouetteScore(points, 6, 1, {0, 0, 0, 0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(SilhouetteScore({}, 0, 1, {}), 0.0);
}

// --------------------------- table printer ---------------------------

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22222"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("+-------+-------+"), std::string::npos);
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Fixed(0.12345, 3), "0.123");
  EXPECT_EQ(TablePrinter::Percent(0.1801, 2), "+18.01%");
  EXPECT_EQ(TablePrinter::Percent(-0.0565, 2), "-5.65%");
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"only"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

}  // namespace
}  // namespace sisg
