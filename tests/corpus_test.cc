#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "corpus/corpus.h"
#include "corpus/enricher.h"
#include "corpus/subsample.h"
#include "corpus/token_space.h"
#include "corpus/vocabulary.h"
#include "datagen/dataset.h"
#include "suite_dir.h"

namespace sisg {
namespace {

class CorpusFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetSpec spec;
    spec.catalog.num_items = 400;
    spec.catalog.num_leaf_categories = 8;
    spec.catalog.num_shops = 40;
    spec.catalog.num_brands = 30;
    spec.users.num_user_types = 60;
    spec.num_train_sessions = 500;
    spec.num_test_sessions = 50;
    auto ds = SyntheticDataset::Generate(spec);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<SyntheticDataset>(std::move(ds).value());
    token_space_ =
        TokenSpace::Create(&dataset_->catalog(), &dataset_->users());
  }

  /// Builds `corpus` from the training sessions.
  Status Build(const CorpusOptions& opts, Corpus* corpus) const {
    VectorSessionSource sessions(&dataset_->train_sessions());
    return corpus->BuildFromSource(&sessions, token_space_,
                                   dataset_->catalog(), opts);
  }

  std::unique_ptr<SyntheticDataset> dataset_;
  TokenSpace token_space_;
};

// --------------------------- token space ---------------------------

TEST_F(CorpusFixture, TokenSpaceLayout) {
  const TokenSpace& ts = token_space_;
  EXPECT_EQ(ts.num_items(), 400u);
  EXPECT_EQ(ts.num_user_types(), 60u);
  // Items first.
  EXPECT_TRUE(ts.IsItem(0));
  EXPECT_TRUE(ts.IsItem(399));
  EXPECT_FALSE(ts.IsItem(400));
  EXPECT_EQ(ts.ClassOf(0), TokenClass::kItem);
  // SI blocks are disjoint and classed correctly.
  std::set<uint32_t> seen;
  for (ItemFeatureKind kind : AllItemFeatureKinds()) {
    const uint32_t tok = ts.SiToken(kind, 0);
    EXPECT_EQ(ts.ClassOf(tok), TokenClass::kItemSi);
    EXPECT_TRUE(seen.insert(tok).second);
    ItemFeatureKind k2;
    uint32_t v2;
    ts.DecodeSi(tok, &k2, &v2);
    EXPECT_EQ(k2, kind);
    EXPECT_EQ(v2, 0u);
  }
  // User types last.
  const uint32_t ut_tok = ts.UserTypeToken(5);
  EXPECT_EQ(ts.ClassOf(ut_tok), TokenClass::kUserType);
  EXPECT_EQ(ts.TokenToUserType(ut_tok), 5u);
  EXPECT_EQ(ts.UserTypeToken(ts.num_user_types() - 1), ts.num_tokens() - 1);
}

TEST_F(CorpusFixture, TokenStrings) {
  const TokenSpace& ts = token_space_;
  EXPECT_EQ(ts.TokenString(7), "item_7");
  const uint32_t brand_tok = ts.SiToken(ItemFeatureKind::kBrand, 12);
  EXPECT_EQ(ts.TokenString(brand_tok), "brand_12");
  const std::string ut = ts.TokenString(ts.UserTypeToken(0));
  EXPECT_EQ(ut.rfind("usertype_", 0), 0u);
}

// --------------------------- enricher ---------------------------

TEST_F(CorpusFixture, EnrichMatchesEq4) {
  Session s;
  s.user_type = 3;
  s.items = {10, 20};
  EnrichOptions opts;  // SI + UT
  SequenceEnricher enricher(&token_space_, &dataset_->catalog(), opts);
  const auto seq = enricher.Enrich(s);
  // v1, 8 SI, v2, 8 SI, UT = 19 tokens.
  ASSERT_EQ(seq.size(), 19u);
  EXPECT_EQ(seq[0], 10u);
  EXPECT_EQ(seq[9], 20u);
  EXPECT_EQ(seq[18], token_space_.UserTypeToken(3));
  // SI tokens follow their item in kind order.
  const ItemMeta& m = dataset_->catalog().meta(10);
  int i = 1;
  for (ItemFeatureKind kind : AllItemFeatureKinds()) {
    EXPECT_EQ(seq[i++], token_space_.SiToken(kind, m.Feature(kind)));
  }
}

TEST_F(CorpusFixture, EnrichVariants) {
  Session s;
  s.user_type = 1;
  s.items = {5, 6, 7};
  SequenceEnricher plain(&token_space_, &dataset_->catalog(),
                         {.include_item_si = false, .include_user_type = false});
  EXPECT_EQ(plain.Enrich(s), (std::vector<uint32_t>{5, 6, 7}));

  SequenceEnricher ut_only(&token_space_, &dataset_->catalog(),
                           {.include_item_si = false, .include_user_type = true});
  const auto seq = ut_only.Enrich(s);
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq[3], token_space_.UserTypeToken(1));

  SequenceEnricher si_only(&token_space_, &dataset_->catalog(),
                           {.include_item_si = true, .include_user_type = false});
  EXPECT_EQ(si_only.Enrich(s).size(), 27u);
  EXPECT_EQ(si_only.TokensPerItem(), 9u);
}

TEST_F(CorpusFixture, EnricherDeterministicAndReusesBuffer) {
  SequenceEnricher enricher(&token_space_, &dataset_->catalog(), {});
  Session s;
  s.user_type = 2;
  s.items = {1, 2, 3};
  std::vector<uint32_t> buf = {99, 98, 97};  // stale content must be cleared
  enricher.Enrich(s, &buf);
  EXPECT_EQ(buf, enricher.Enrich(s));
  EXPECT_EQ(buf.size(), 3u * 9 + 1);
}

// --------------------------- vocabulary ---------------------------

/// Per-token counts of `seqs` over a space of `num_tokens` tokens.
std::vector<uint64_t> CountTokens(
    const std::vector<std::vector<uint32_t>>& seqs, uint32_t num_tokens) {
  std::vector<uint64_t> counts(num_tokens, 0);
  for (const auto& seq : seqs) {
    for (uint32_t tok : seq) ++counts.at(tok);
  }
  return counts;
}

TEST_F(CorpusFixture, VocabularyCountsAndOrder) {
  std::vector<std::vector<uint32_t>> seqs = {{1, 2, 2, 3, 3, 3}, {3, 2, 3}};
  Vocabulary v;
  ASSERT_TRUE(v.BuildFromCounts(CountTokens(seqs, token_space_.num_tokens()), 1,
                                token_space_)
                  .ok());
  EXPECT_EQ(v.size(), 3u);
  // Sorted by descending frequency: 3 (x5), 2 (x3), 1 (x1).
  EXPECT_EQ(v.ToToken(0), 3u);
  EXPECT_EQ(v.Frequency(0), 5u);
  EXPECT_EQ(v.ToToken(1), 2u);
  EXPECT_EQ(v.ToVocab(1), 2);
  EXPECT_EQ(v.ToVocab(999), -1);
  EXPECT_EQ(v.total_count(), 9u);
  EXPECT_EQ(v.ClassOf(0), TokenClass::kItem);
}

TEST_F(CorpusFixture, VocabularyMinCount) {
  const std::vector<uint64_t> counts =
      CountTokens({{1, 1, 1, 2, 2, 3}}, token_space_.num_tokens());
  Vocabulary v;
  ASSERT_TRUE(v.BuildFromCounts(counts, 2, token_space_).ok());
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.ToVocab(3), -1);
  // min_count that kills everything is an error.
  Vocabulary v2;
  EXPECT_FALSE(v2.BuildFromCounts(counts, 100, token_space_).ok());
  // min_count 0 rejected.
  EXPECT_FALSE(v2.BuildFromCounts(counts, 0, token_space_).ok());
}

TEST_F(CorpusFixture, VocabularyRejectsOutOfRangeToken) {
  const uint32_t n = token_space_.num_tokens();
  const std::vector<uint64_t> counts = CountTokens({{n + 5}}, n + 6);
  Vocabulary v;
  EXPECT_EQ(v.BuildFromCounts(counts, 1, token_space_).code(),
            StatusCode::kOutOfRange);
}

TEST_F(CorpusFixture, NoiseDistributionFollowsPower) {
  std::vector<std::vector<uint32_t>> seqs;
  for (int i = 0; i < 160; ++i) seqs.push_back({1});
  for (int i = 0; i < 10; ++i) seqs.push_back({2});
  Vocabulary v;
  ASSERT_TRUE(v.BuildFromCounts(CountTokens(seqs, token_space_.num_tokens()), 1,
                                token_space_)
                  .ok());
  auto noise = v.BuildNoise();
  ASSERT_TRUE(noise.ok());
  // freq ratio 16 -> prob ratio 16^0.75 = 8.
  EXPECT_NEAR(noise->Probability(0) / noise->Probability(1), 8.0, 0.01);

  auto sub = v.BuildNoiseOver({1});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->size(), 1u);
  EXPECT_FALSE(v.BuildNoiseOver({}).ok());
}

TEST_F(CorpusFixture, VocabularySaveLoadRoundTrip) {
  CorpusOptions opts;
  Corpus corpus;
  ASSERT_TRUE(Build(opts, &corpus).ok());
  const Vocabulary& v = corpus.vocab();
  const std::string path = SuiteDir() + "/vocab.bin";
  ASSERT_TRUE(v.Save(path).ok());
  auto loaded = Vocabulary::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), v.size());
  EXPECT_EQ(loaded->total_count(), v.total_count());
  for (uint32_t i = 0; i < v.size(); i += 13) {
    EXPECT_EQ(loaded->ToToken(i), v.ToToken(i));
    EXPECT_EQ(loaded->Frequency(i), v.Frequency(i));
    EXPECT_EQ(loaded->ClassOf(i), v.ClassOf(i));
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(loaded->CountOfClass(static_cast<TokenClass>(c)),
              v.CountOfClass(static_cast<TokenClass>(c)));
  }
  std::remove(path.c_str());
}

TEST_F(CorpusFixture, VocabularyLoadRejectsCorruption) {
  const std::string path = SuiteDir() + "/vocab_bad.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a vocab file at all", f);
  std::fclose(f);
  EXPECT_EQ(Vocabulary::Load(path).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(Vocabulary::Load("/nonexistent/vocab").status().code(),
            StatusCode::kIOError);
  std::remove(path.c_str());
}

// --------------------------- subsample ---------------------------

TEST(SubsampleTest, KeepProbabilityMonotoneInFrequency) {
  const double t = 1e-4;
  double prev = 1.1;
  for (double f : {1e-5, 1e-4, 1e-3, 1e-2, 1e-1}) {
    const double p = KeepProbability(f, t);
    EXPECT_LE(p, prev);
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  EXPECT_DOUBLE_EQ(KeepProbability(1e-6, t), 1.0);  // below threshold: keep
  EXPECT_DOUBLE_EQ(KeepProbability(0.0, t), 1.0);
}

TEST_F(CorpusFixture, SubsamplerUsesPerClassThresholds) {
  CorpusOptions opts;
  Corpus corpus;
  ASSERT_TRUE(Build(opts, &corpus).ok());
  SubsampleConfig config;
  config.item_threshold = 1.0;  // never drop items
  config.si_threshold = 1e-9;   // nuke SI
  Subsampler sub;
  sub.Build(corpus.vocab(), config);
  double min_item = 1.0, max_si = 0.0;
  for (uint32_t v = 0; v < corpus.vocab().size(); ++v) {
    if (corpus.vocab().ClassOf(v) == TokenClass::kItem) {
      min_item = std::min(min_item, static_cast<double>(sub.Keep(v)));
    } else if (corpus.vocab().ClassOf(v) == TokenClass::kItemSi) {
      max_si = std::max(max_si, static_cast<double>(sub.Keep(v)));
    }
  }
  EXPECT_DOUBLE_EQ(min_item, 1.0);
  EXPECT_LT(max_si, 0.2);
}

TEST(SubsampleTest, AggressivePresetIsMoreAggressive) {
  const SubsampleConfig normal;
  const SubsampleConfig aggressive = SubsampleConfig::Aggressive();
  EXPECT_LT(aggressive.si_threshold, normal.si_threshold);
}

// --------------------------- corpus ---------------------------

TEST_F(CorpusFixture, CorpusBuildFiltersAndEncodes) {
  CorpusOptions opts;
  opts.min_count = 2;
  Corpus corpus;
  ASSERT_TRUE(Build(opts, &corpus).ok());
  EXPECT_GT(corpus.vocab().size(), 0u);
  EXPECT_GT(corpus.num_tokens(), 0u);
  uint64_t tokens = 0;
  for (uint64_t s = 0; s < corpus.num_sequences(); ++s) {
    const auto seq = corpus.packed().seq(s);
    EXPECT_GE(seq.size(), 2u);
    tokens += seq.size();
    for (uint32_t v : seq) ASSERT_LT(v, corpus.vocab().size());
  }
  EXPECT_EQ(tokens, corpus.num_tokens());
}

TEST_F(CorpusFixture, CorpusRejectsEmptyInput) {
  Corpus corpus;
  const std::vector<Session> none;
  VectorSessionSource sessions(&none);
  EXPECT_FALSE(corpus
                   .BuildFromSource(&sessions, token_space_,
                                    dataset_->catalog(), CorpusOptions{})
                   .ok());
}

TEST_F(CorpusFixture, CorpusVariantsChangeVocabComposition) {
  Corpus plain, enriched;
  CorpusOptions po;
  po.enrich.include_item_si = false;
  po.enrich.include_user_type = false;
  ASSERT_TRUE(Build(po, &plain).ok());
  ASSERT_TRUE(Build(CorpusOptions{}, &enriched).ok());
  EXPECT_EQ(plain.vocab().CountOfClass(TokenClass::kItemSi), 0u);
  EXPECT_EQ(plain.vocab().CountOfClass(TokenClass::kUserType), 0u);
  EXPECT_GT(enriched.vocab().CountOfClass(TokenClass::kItemSi), 0u);
  EXPECT_GT(enriched.vocab().CountOfClass(TokenClass::kUserType), 0u);
  EXPECT_GT(enriched.num_tokens(), plain.num_tokens());
}

}  // namespace
}  // namespace sisg
