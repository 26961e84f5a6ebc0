// Tests of the production-serving features: the precomputed candidate
// table, word2vec text export, and daily-retrain warm start.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/quant.h"
#include "core/candidate_table.h"
#include "core/ivf_index.h"
#include "core/matching_engine.h"
#include "core/pipeline.h"
#include "corpus/corpus.h"
#include "datagen/dataset.h"
#include "eval/hitrate.h"
#include "obs/metrics.h"
#include "sgns/trainer.h"
#include "sgns/warm_start.h"

namespace sisg {
namespace {

class ServingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetSpec spec;
    spec.catalog.num_items = 400;
    spec.catalog.num_leaf_categories = 8;
    spec.catalog.num_shops = 30;
    spec.catalog.num_brands = 24;
    spec.users.num_user_types = 50;
    spec.num_train_sessions = 1500;
    spec.num_test_sessions = 200;
    auto ds = SyntheticDataset::Generate(spec);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<SyntheticDataset>(std::move(ds).value());

    SisgConfig config;
    config.variant = SisgVariant::kSisgFU;
    config.sgns.dim = 16;
    config.sgns.epochs = 3;
    config.sgns.negatives = 5;
    SisgPipeline pipeline(config);
    auto model = pipeline.Train(*dataset_);
    ASSERT_TRUE(model.ok());
    model_ = std::make_unique<SisgModel>(std::move(model).value());
    auto engine = model_->BuildMatchingEngine();
    ASSERT_TRUE(engine.ok());
    engine_ = std::make_unique<MatchingEngine>(std::move(engine).value());
  }

  std::unique_ptr<SyntheticDataset> dataset_;
  std::unique_ptr<SisgModel> model_;
  std::unique_ptr<MatchingEngine> engine_;
};

// --------------------------- candidate table ---------------------------

TEST_F(ServingFixture, CandidateTableMatchesEngineQueries) {
  CandidateTable table;
  ASSERT_TRUE(table.Build(*engine_, 10).ok());
  EXPECT_EQ(table.num_items(), engine_->num_items());
  for (uint32_t item = 0; item < engine_->num_items(); item += 37) {
    const auto direct = engine_->Query(item, 10);
    const auto& cached = table.Get(item);
    ASSERT_EQ(direct.size(), cached.size()) << "item " << item;
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(direct[i].id, cached[i].id);
      EXPECT_FLOAT_EQ(direct[i].score, cached[i].score);
    }
  }
  EXPECT_TRUE(table.Get(99999).empty());
}

TEST_F(ServingFixture, CandidateTableParallelBuildIdentical) {
  CandidateTable serial, parallel;
  ASSERT_TRUE(serial.Build(*engine_, 5, 1).ok());
  ASSERT_TRUE(parallel.Build(*engine_, 5, 4).ok());
  for (uint32_t item = 0; item < engine_->num_items(); ++item) {
    ASSERT_EQ(serial.Get(item).size(), parallel.Get(item).size());
    for (size_t i = 0; i < serial.Get(item).size(); ++i) {
      EXPECT_EQ(serial.Get(item)[i].id, parallel.Get(item)[i].id);
    }
  }
}

TEST_F(ServingFixture, CandidateTableRejectsBadArgs) {
  CandidateTable table;
  EXPECT_FALSE(table.Build(*engine_, 0).ok());
  MatchingEngine empty;
  EXPECT_FALSE(table.Build(empty, 5).ok());
}

TEST_F(ServingFixture, CandidateTableSaveText) {
  CandidateTable table;
  ASSERT_TRUE(table.Build(*engine_, 3).ok());
  const std::string path = ::testing::TempDir() + "/candidates.tsv";
  ASSERT_TRUE(table.SaveText(path).ok());
  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find('\t'), std::string::npos);
  }
  EXPECT_GT(lines, 100u);
  std::remove(path.c_str());
  EXPECT_FALSE(table.SaveText("/nonexistent/dir/x").ok());
}

// --------------------------- text export ---------------------------

TEST_F(ServingFixture, ExportTextFormat) {
  const std::string path = ::testing::TempDir() + "/vectors.txt";
  ASSERT_TRUE(model_->ExportText(path).ok());
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, std::to_string(model_->vocab().size()) + " " +
                        std::to_string(model_->dim()));
  std::string line;
  size_t lines = 0;
  bool saw_item = false, saw_si = false, saw_ut = false;
  while (std::getline(in, line)) {
    ++lines;
    saw_item |= line.rfind("item_", 0) == 0;
    saw_si |= line.rfind("brand_", 0) == 0 || line.rfind("leaf_category_", 0) == 0;
    saw_ut |= line.rfind("usertype_", 0) == 0;
  }
  EXPECT_EQ(lines, model_->vocab().size());
  EXPECT_TRUE(saw_item);
  EXPECT_TRUE(saw_si);
  EXPECT_TRUE(saw_ut);
  std::remove(path.c_str());
}

TEST_F(ServingFixture, ExportTextOutputVectorsDiffer) {
  const std::string in_path = ::testing::TempDir() + "/in.txt";
  const std::string out_path = ::testing::TempDir() + "/out.txt";
  ASSERT_TRUE(model_->ExportText(in_path, true).ok());
  ASSERT_TRUE(model_->ExportText(out_path, false).ok());
  std::ifstream a(in_path), b(out_path);
  std::string la, lb;
  std::getline(a, la);
  std::getline(b, lb);
  EXPECT_EQ(la, lb);  // same header
  std::getline(a, la);
  std::getline(b, lb);
  EXPECT_NE(la, lb);  // different vectors for the hottest token
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

// --------------------------- warm start ---------------------------

class WarmStartFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetSpec spec;
    spec.catalog.num_items = 400;
    spec.catalog.num_leaf_categories = 8;
    spec.users.num_user_types = 50;
    spec.num_train_sessions = 2000;
    spec.num_test_sessions = 300;
    auto ds = SyntheticDataset::Generate(spec);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<SyntheticDataset>(std::move(ds).value());
    token_space_ = TokenSpace::Create(&dataset_->catalog(), &dataset_->users());

    // "Yesterday": first half of the sessions. "Today": all sessions.
    std::vector<Session> yesterday(dataset_->train_sessions().begin(),
                                   dataset_->train_sessions().begin() + 1000);
    CorpusOptions copts;
    ASSERT_TRUE(old_corpus_
                    .Build(yesterday, token_space_, dataset_->catalog(), copts)
                    .ok());
    ASSERT_TRUE(new_corpus_
                    .Build(dataset_->train_sessions(), token_space_,
                           dataset_->catalog(), copts)
                    .ok());
  }

  SgnsOptions Opts(uint32_t epochs) const {
    SgnsOptions o;
    o.dim = 24;
    o.epochs = epochs;
    o.negatives = 5;
    return o;
  }

  std::unique_ptr<SyntheticDataset> dataset_;
  TokenSpace token_space_;
  Corpus old_corpus_;
  Corpus new_corpus_;
};

TEST_F(WarmStartFixture, CopiesSharedRows) {
  EmbeddingModel old_model;
  ASSERT_TRUE(SgnsTrainer(Opts(2)).Train(old_corpus_, &old_model).ok());
  EmbeddingModel new_model;
  ASSERT_TRUE(new_model.Init(new_corpus_.vocab().size(), 24, 1).ok());
  ASSERT_TRUE(WarmStartFrom(old_corpus_.vocab(), old_model, new_corpus_.vocab(),
                            &new_model)
                  .ok());
  // Every token in both vocabs must carry yesterday's vector.
  int shared = 0;
  for (uint32_t v = 0; v < new_corpus_.vocab().size(); ++v) {
    const int32_t ov = old_corpus_.vocab().ToVocab(new_corpus_.vocab().ToToken(v));
    if (ov < 0) continue;
    ++shared;
    for (uint32_t d = 0; d < 24; ++d) {
      ASSERT_EQ(new_model.Input(v)[d],
                old_model.Input(static_cast<uint32_t>(ov))[d]);
    }
  }
  EXPECT_GT(shared, 100);
}

TEST_F(WarmStartFixture, RejectsShapeMismatches) {
  EmbeddingModel old_model;
  ASSERT_TRUE(old_model.Init(old_corpus_.vocab().size(), 24, 1).ok());
  EmbeddingModel wrong_rows;
  ASSERT_TRUE(wrong_rows.Init(3, 24, 1).ok());
  EXPECT_FALSE(WarmStartFrom(old_corpus_.vocab(), old_model, new_corpus_.vocab(),
                             &wrong_rows)
                   .ok());
  EmbeddingModel wrong_dim;
  ASSERT_TRUE(wrong_dim.Init(new_corpus_.vocab().size(), 8, 1).ok());
  EXPECT_FALSE(WarmStartFrom(old_corpus_.vocab(), old_model, new_corpus_.vocab(),
                             &wrong_dim)
                   .ok());
  EXPECT_FALSE(WarmStartFrom(old_corpus_.vocab(), old_model, new_corpus_.vocab(),
                             nullptr)
                   .ok());
}

TEST_F(WarmStartFixture, WarmStartTrainingBeatsShortColdRun) {
  // Yesterday's full training.
  EmbeddingModel old_model;
  ASSERT_TRUE(SgnsTrainer(Opts(6)).Train(old_corpus_, &old_model).ok());

  // Today, short run: warm vs cold.
  SgnsOptions warm_opts = Opts(1);
  warm_opts.warm_start = true;
  EmbeddingModel warm;
  ASSERT_TRUE(warm.Init(new_corpus_.vocab().size(), 24, 1).ok());
  ASSERT_TRUE(WarmStartFrom(old_corpus_.vocab(), old_model, new_corpus_.vocab(),
                            &warm)
                  .ok());
  ASSERT_TRUE(SgnsTrainer(warm_opts).Train(new_corpus_, &warm).ok());

  EmbeddingModel cold;
  ASSERT_TRUE(SgnsTrainer(Opts(1)).Train(new_corpus_, &cold).ok());

  SisgConfig cfg;
  cfg.variant = SisgVariant::kSisgFU;
  auto hr20 = [&](EmbeddingModel&& m) {
    SisgModel model(cfg, token_space_, new_corpus_.vocab(), std::move(m));
    auto engine = model.BuildMatchingEngine();
    EXPECT_TRUE(engine.ok());
    return EvaluateHitRate(
               dataset_->test_sessions(),
               [&](uint32_t item, uint32_t k) { return engine->Query(item, k); },
               {20})
        .hit_rate[0];
  };
  const double hr_warm = hr20(std::move(warm));
  const double hr_cold = hr20(std::move(cold));
  EXPECT_GT(hr_warm, hr_cold) << "warm start should help a short daily run";
}

TEST_F(WarmStartFixture, TrainerWarmStartValidatesShape) {
  SgnsOptions opts = Opts(1);
  opts.warm_start = true;
  EmbeddingModel unshaped;
  EXPECT_EQ(SgnsTrainer(opts).Train(new_corpus_, &unshaped).code(),
            StatusCode::kFailedPrecondition);
}

// --------------------------- graceful degradation ---------------------------

/// ServingFixture plus metrics enabled for the duration of each test, so
/// the serve.* instrumentation can be asserted on directly.
class DegradationFixture : public ServingFixture {
 protected:
  void SetUp() override {
    ServingFixture::SetUp();
    was_enabled_ = obs::MetricsEnabled();
    obs::EnableMetrics(true);
    obs::MetricsRegistry::Global().Reset();
  }
  void TearDown() override {
    obs::EnableMetrics(was_enabled_);
    obs::MetricsRegistry::Global().Reset();
  }
  static double DegradedGauge() {
    return obs::MetricsRegistry::Global().gauge("serve.degraded")->Value();
  }
  bool was_enabled_ = false;
};

// A failed IVF-PQ enable must flip the degraded gauge, keep serving through
// the brute-force scan (results identical to a never-accelerated engine),
// and keep the latency histogram recording; a good enable clears the state.
TEST_F(DegradationFixture, FailedIvfPqEnableDegradesToBruteForce) {
  auto victim = model_->BuildMatchingEngine();
  ASSERT_TRUE(victim.ok());
  PqOptions bad;
  bad.ksub = 0;  // rejected by PqCodebook::Train, after the IVF build
  const Status st = victim->EnableIvfPq(IvfOptions{}, bad);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_TRUE(victim->degraded());
  EXPECT_EQ(DegradedGauge(), 1.0);

  auto brute = model_->BuildMatchingEngine();
  ASSERT_TRUE(brute.ok());
  const uint64_t latency_before = obs::MetricsRegistry::Global()
                                      .histogram("serve.query_seconds")
                                      ->Count();
  size_t compared = 0;
  for (uint32_t item = 0; item < victim->num_items(); item += 29) {
    const auto got = victim->Query(item, 10);
    const auto want = brute->Query(item, 10);
    ASSERT_EQ(got.size(), want.size()) << "item " << item;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].id, want[i].id) << "item " << item << " rank " << i;
      ASSERT_EQ(got[i].score, want[i].score) << "item " << item;
    }
    compared += got.size();
  }
  ASSERT_GT(compared, 0u);
  EXPECT_GT(obs::MetricsRegistry::Global()
                .histogram("serve.query_seconds")
                ->Count(),
            latency_before)
      << "latency histogram stopped recording after degradation";

  // Recovery: a good enable clears the degraded state and the gauge.
  ASSERT_TRUE(victim->EnableIvfPq(IvfOptions{}, PqOptions{}).ok());
  EXPECT_FALSE(victim->degraded());
  EXPECT_EQ(DegradedGauge(), 0.0);
}

// The quantized scan honors the same contract as the IVF-PQ enable: a corrupt
// int8 arena artifact fails its CRC as DataLoss, flips the degraded gauge,
// and the engine keeps answering on the fp32 scan bit-identically to a
// never-quantized engine; a pristine replacement clears the state.
TEST_F(DegradationFixture, CorruptInt8ArtifactDegradesToFp32) {
  auto good = model_->BuildMatchingEngine();
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(good->EnableInt8().ok());
  EXPECT_EQ(good->quant_mode(), QuantMode::kInt8);
  const std::string path = ::testing::TempDir() + "/degradation.qarena";
  ASSERT_TRUE(good->SaveInt8(path).ok());

  // Flip one payload byte; the artifact CRC must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(200);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x04);
    f.seekp(200);
    f.write(&b, 1);
  }

  auto victim = model_->BuildMatchingEngine();
  ASSERT_TRUE(victim.ok());
  for (const bool use_mmap : {false, true}) {
    const Status st = victim->EnableInt8FromFile(path, use_mmap);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss)
        << "mmap=" << use_mmap << ": " << st.ToString();
    EXPECT_TRUE(victim->degraded()) << "mmap=" << use_mmap;
    EXPECT_EQ(victim->quant_mode(), QuantMode::kFp32) << "mmap=" << use_mmap;
    EXPECT_EQ(DegradedGauge(), 1.0) << "mmap=" << use_mmap;
  }

  // Degraded serving is the fp32 scan, bit-identical to an engine that
  // never attempted quantization.
  auto brute = model_->BuildMatchingEngine();
  ASSERT_TRUE(brute.ok());
  size_t compared = 0;
  for (uint32_t item = 0; item < victim->num_items(); item += 29) {
    const auto got = victim->Query(item, 10);
    const auto want = brute->Query(item, 10);
    ASSERT_EQ(got.size(), want.size()) << "item " << item;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].id, want[i].id) << "item " << item << " rank " << i;
      ASSERT_EQ(got[i].score, want[i].score) << "item " << item;
    }
    compared += got.size();
  }
  ASSERT_GT(compared, 0u);

  // Recovery: a pristine artifact re-enables the int8 scan, clears the
  // gauge, and the quantized-scan instrumentation starts moving.
  ASSERT_TRUE(good->SaveInt8(path).ok());
  ASSERT_TRUE(victim->EnableInt8FromFile(path, /*use_mmap=*/true).ok());
  EXPECT_FALSE(victim->degraded());
  EXPECT_EQ(victim->quant_mode(), QuantMode::kInt8);
  EXPECT_EQ(DegradedGauge(), 0.0);
  const uint64_t rerank_before =
      obs::MetricsRegistry::Global().counter("serve.rerank_rows")->Value();
  EXPECT_FALSE(victim->Query(1, 10).empty());
  EXPECT_GT(obs::MetricsRegistry::Global().counter("serve.rerank_rows")->Value(),
            rerank_before);
  EXPECT_GT(
      obs::MetricsRegistry::Global().counter("serve.bytes_scanned")->Value(),
      0u);
  std::remove(path.c_str());
}

// A shape-mismatched int8 arena (valid artifact, wrong engine) degrades as
// FailedPrecondition and fp32 serving continues.
TEST_F(DegradationFixture, MismatchedInt8ArtifactDegrades) {
  std::vector<float> data(32 * 4);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.1f * static_cast<float>(i % 13) - 0.5f;
  }
  Int8Arena small;
  ASSERT_TRUE(small.BuildFromRows(data.data(), 32, 4, 4).ok());
  const std::string path = ::testing::TempDir() + "/mismatch.qarena";
  ASSERT_TRUE(small.Save(path).ok());

  auto victim = model_->BuildMatchingEngine();
  ASSERT_TRUE(victim.ok());
  EXPECT_EQ(victim->EnableInt8FromFile(path).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(victim->degraded());
  EXPECT_EQ(victim->quant_mode(), QuantMode::kFp32);
  EXPECT_EQ(DegradedGauge(), 1.0);
  EXPECT_FALSE(victim->Query(0, 5).empty() &&
               victim->Query(1, 5).empty() && victim->Query(2, 5).empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sisg
