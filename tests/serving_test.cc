// Tests of the production-serving features: the precomputed candidate
// table, word2vec text export, daily-retrain warm start, and the engine's
// failed-enable contract.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/quant.h"
#include "core/candidate_table.h"
#include "core/ivf_index.h"
#include "core/matching_engine.h"
#include "core/pipeline.h"
#include "corpus/corpus.h"
#include "datagen/dataset.h"
#include "eval/hitrate.h"
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
    VectorSessionSource old_sessions(&yesterday);
    ASSERT_TRUE(old_corpus_
                    .BuildFromSource(&old_sessions, token_space_,
                                     dataset_->catalog(), copts)
                    .ok());
    VectorSessionSource new_sessions(&dataset_->train_sessions());
    ASSERT_TRUE(new_corpus_
                    .BuildFromSource(&new_sessions, token_space_,
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

// --------------------------- failed enables ---------------------------

/// One contract for every enable: a failure returns its typed error and
/// leaves the engine exactly as it was, with the same quant_mode() and the
/// same answers bit for bit. Every case runs against an fp32 engine and an
/// int8 one.
class FailedEnableFixture : public ServingFixture {
 protected:
  std::vector<MatchingEngine> Victims() {
    std::vector<MatchingEngine> victims;
    for (const bool int8 : {false, true}) {
      auto engine = model_->BuildMatchingEngine();
      EXPECT_TRUE(engine.ok());
      if (int8) {
        EXPECT_TRUE(engine->EnableInt8().ok());
      }
      victims.push_back(std::move(engine).value());
    }
    return victims;
  }

  static std::vector<std::vector<ScoredId>> Answers(const MatchingEngine& e) {
    std::vector<std::vector<ScoredId>> out;
    for (uint32_t item = 0; item < e.num_items(); item += 29) {
      out.push_back(e.Query(item, 10));
    }
    return out;
  }

  /// Runs `attempt` on `victim` and checks the contract against the answers
  /// the same engine gave just before.
  template <typename Attempt>
  static void ExpectFailsUnchanged(MatchingEngine* victim, StatusCode want,
                                   Attempt attempt, const std::string& what) {
    const QuantMode mode = victim->quant_mode();
    const auto before = Answers(*victim);
    const Status st = attempt(victim);
    EXPECT_EQ(st.code(), want) << what << ": " << st.ToString();
    EXPECT_EQ(victim->quant_mode(), mode) << what;
    const auto after = Answers(*victim);
    ASSERT_EQ(after.size(), before.size()) << what;
    size_t compared = 0;
    for (size_t q = 0; q < after.size(); ++q) {
      ASSERT_EQ(after[q].size(), before[q].size()) << what << " query " << q;
      for (size_t r = 0; r < after[q].size(); ++r) {
        ASSERT_EQ(after[q][r].id, before[q][r].id) << what << " query " << q;
        ASSERT_EQ(std::bit_cast<uint32_t>(after[q][r].score),
                  std::bit_cast<uint32_t>(before[q][r].score))
            << what << " query " << q;
      }
      compared += after[q].size();
    }
    EXPECT_GT(compared, 0u) << what;
  }

  static std::string Name(const MatchingEngine& victim, bool use_mmap) {
    return std::string(victim.quant_mode() == QuantMode::kInt8 ? "int8"
                                                               : "fp32") +
           (use_mmap ? " mmap" : " heap");
  }
};

TEST_F(FailedEnableFixture, FailedIvfPqEnableLeavesEngineUnchanged) {
  PqOptions bad;
  bad.ksub = 0;  // rejected by PqCodebook::Train, after the IVF build
  for (MatchingEngine& victim : Victims()) {
    ExpectFailsUnchanged(
        &victim, StatusCode::kInvalidArgument,
        [&](MatchingEngine* e) { return e->EnableIvfPq(IvfOptions{}, bad); },
        Name(victim, false));
  }
}

// A corrupt int8 arena fails its CRC as DataLoss. An int8 engine keeps the
// codes it serves (it is not dropped to fp32); a pristine artifact then
// switches both engines to the loaded codes.
TEST_F(FailedEnableFixture, CorruptInt8ArtifactLeavesEngineUnchanged) {
  ASSERT_TRUE(engine_->EnableInt8().ok());
  const std::string path = ::testing::TempDir() + "/failed_enable.qarena";
  ASSERT_TRUE(engine_->SaveInt8(path).ok());
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
  std::vector<MatchingEngine> victims = Victims();
  for (MatchingEngine& victim : victims) {
    for (const bool use_mmap : {false, true}) {
      ExpectFailsUnchanged(
          &victim, StatusCode::kDataLoss,
          [&](MatchingEngine* e) {
            return e->EnableInt8FromFile(path, use_mmap);
          },
          Name(victim, use_mmap));
    }
  }
  ASSERT_TRUE(engine_->SaveInt8(path).ok());
  for (MatchingEngine& victim : victims) {
    ASSERT_TRUE(victim.EnableInt8FromFile(path, /*use_mmap=*/true).ok());
    EXPECT_EQ(victim.quant_mode(), QuantMode::kInt8);
    EXPECT_FALSE(victim.Query(1, 10).empty());
  }
  std::remove(path.c_str());
}

// A valid artifact quantized for another engine's shape is
// FailedPrecondition.
TEST_F(FailedEnableFixture, MismatchedInt8ArtifactLeavesEngineUnchanged) {
  std::vector<float> data(32 * 4);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.1f * static_cast<float>(i % 13) - 0.5f;
  }
  Int8Arena small;
  ASSERT_TRUE(small.BuildFromRows(data.data(), 32, 4, 4).ok());
  const std::string path = ::testing::TempDir() + "/mismatch.qarena";
  ASSERT_TRUE(small.Save(path).ok());
  for (MatchingEngine& victim : Victims()) {
    for (const bool use_mmap : {false, true}) {
      ExpectFailsUnchanged(
          &victim, StatusCode::kFailedPrecondition,
          [&](MatchingEngine* e) {
            return e->EnableInt8FromFile(path, use_mmap);
          },
          Name(victim, use_mmap));
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sisg
