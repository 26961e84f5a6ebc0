#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "corpus/corpus.h"
#include "datagen/dataset.h"
#include "sgns/checkpoint.h"
#include "sgns/embedding_model.h"
#include "sgns/trainer.h"
#include "sgns/window.h"
#include "suite_dir.h"

namespace sisg {
namespace {

// --------------------------- embedding model ---------------------------

TEST(EmbeddingModelTest, InitShapesAndRanges) {
  EmbeddingModel m;
  ASSERT_TRUE(m.Init(10, 16, 1).ok());
  EXPECT_EQ(m.rows(), 10u);
  EXPECT_EQ(m.dim(), 16u);
  const float bound = 0.5f / 16;
  for (uint32_t r = 0; r < 10; ++r) {
    for (uint32_t d = 0; d < 16; ++d) {
      EXPECT_LE(std::abs(m.Input(r)[d]), bound);
      EXPECT_EQ(m.Output(r)[d], 0.0f);
    }
  }
  EXPECT_FALSE(m.Init(0, 16, 1).ok());
  EXPECT_FALSE(m.Init(10, 0, 1).ok());
}

TEST(EmbeddingModelTest, InitIsSeedDeterministic) {
  EmbeddingModel a, b, c;
  ASSERT_TRUE(a.Init(5, 8, 42).ok());
  ASSERT_TRUE(b.Init(5, 8, 42).ok());
  ASSERT_TRUE(c.Init(5, 8, 43).ok());
  EXPECT_EQ(a.Input(3)[4], b.Input(3)[4]);
  EXPECT_NE(a.Input(3)[4], c.Input(3)[4]);
}

TEST(EmbeddingModelTest, SaveLoadRoundTrip) {
  EmbeddingModel m;
  ASSERT_TRUE(m.Init(7, 12, 9).ok());
  m.Output(3)[5] = 0.25f;
  const std::string path = SuiteDir() + "/model.emb";
  ASSERT_TRUE(m.Save(path).ok());
  auto loaded = EmbeddingModel::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows(), 7u);
  EXPECT_EQ(loaded->dim(), 12u);
  for (uint32_t r = 0; r < 7; ++r) {
    for (uint32_t d = 0; d < 12; ++d) {
      EXPECT_EQ(loaded->Input(r)[d], m.Input(r)[d]);
      EXPECT_EQ(loaded->Output(r)[d], m.Output(r)[d]);
    }
  }
  std::remove(path.c_str());
}

TEST(EmbeddingModelTest, LoadRejectsGarbage) {
  const std::string path = SuiteDir() + "/garbage.emb";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("garbage", f);
  std::fclose(f);
  EXPECT_EQ(EmbeddingModel::Load(path).status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
  EXPECT_EQ(EmbeddingModel::Load("/nonexistent").status().code(),
            StatusCode::kIOError);
}

TEST(EmbeddingModelTest, LoadRejectsTruncated) {
  EmbeddingModel m;
  ASSERT_TRUE(m.Init(20, 32, 1).ok());
  const std::string path = SuiteDir() + "/trunc.emb";
  ASSERT_TRUE(m.Save(path).ok());
  // Truncate to half.
  std::FILE* f = std::fopen(path.c_str(), "r+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(::truncate(path.c_str(), size / 2), 0);
  EXPECT_EQ(EmbeddingModel::Load(path).status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// --------------------------- kernel ---------------------------

// Numerically verifies the kernel against the analytic gradient of the
// SGNS objective (Eq. 3): L = log s(in.pos) + sum log s(-in.neg).
TEST(SgnsKernelTest, MatchesAnalyticGradient) {
  const size_t dim = 8;
  Rng rng(3);
  std::vector<float> in(dim), pos(dim), neg(dim);
  for (size_t i = 0; i < dim; ++i) {
    in[i] = rng.UniformFloat() - 0.5f;
    pos[i] = rng.UniformFloat() - 0.5f;
    neg[i] = rng.UniformFloat() - 0.5f;
  }
  const float lr = 0.1f;
  // Use a fine sigmoid table so quantization error is negligible.
  const SigmoidTable sigmoid(1 << 16);

  std::vector<float> pos_copy = pos, neg_copy = neg, grad_in(dim, 0.0f);
  float* negs[1] = {neg_copy.data()};
  GetSimdOps().sgns_update_fused(in.data(), grad_in.data(), pos_copy.data(),
                                 negs, 1, lr, dim, sigmoid);

  const double fpos = Dot(in.data(), pos.data(), dim);
  const double fneg = Dot(in.data(), neg.data(), dim);
  const double gpos = (1.0 - SigmoidExact(fpos)) * lr;
  const double gneg = (0.0 - SigmoidExact(fneg)) * lr;
  for (size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(grad_in[i], gpos * pos[i] + gneg * neg[i], 1e-4);
    EXPECT_NEAR(pos_copy[i], pos[i] + gpos * in[i], 1e-4);
    EXPECT_NEAR(neg_copy[i], neg[i] + gneg * in[i], 1e-4);
  }
}

TEST(SgnsKernelTest, NullNegativesAreSkipped) {
  const size_t dim = 4;
  std::vector<float> in = {0.1f, 0.2f, 0.3f, 0.4f};
  std::vector<float> pos = {0.0f, 0.0f, 0.0f, 0.0f};
  std::vector<float> grad(dim, 0.0f);
  float* negs[3] = {nullptr, nullptr, nullptr};
  const SigmoidTable sigmoid;
  GetSimdOps().sgns_update_fused(in.data(), grad.data(), pos.data(), negs, 3,
                                 0.1f, dim, sigmoid);
  // Only the positive term applies: g = (1 - s(0)) * lr = 0.05.
  EXPECT_NEAR(pos[0], 0.005f, 1e-5);
  EXPECT_NEAR(grad[0], 0.0f, 1e-6);  // pos vector was zero before update
}

TEST(SgnsKernelTest, UpdateIncreasesPositiveScore) {
  const size_t dim = 16;
  Rng rng(5);
  std::vector<float> in(dim), pos(dim), grad(dim, 0.0f);
  for (size_t i = 0; i < dim; ++i) {
    in[i] = rng.UniformFloat() - 0.5f;
    pos[i] = rng.UniformFloat() - 0.5f;
  }
  const SigmoidTable sigmoid;
  const float before = Dot(in.data(), pos.data(), dim);
  GetSimdOps().sgns_update_fused(in.data(), grad.data(), pos.data(), nullptr, 0,
                                 0.5f, dim, sigmoid);
  Axpy(1.0f, grad.data(), in.data(), dim);
  EXPECT_GT(Dot(in.data(), pos.data(), dim), before);
}

// --------------------------- window ---------------------------

struct WindowCase {
  uint32_t window;
  bool directional;
};

class WindowProperty : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowProperty, PairsRespectPolicy) {
  const WindowCase& c = GetParam();
  WindowOptions opts;
  opts.window = c.window;
  opts.directional = c.directional;
  std::vector<uint32_t> seq = {10, 11, 12, 13, 14, 15, 16, 17};
  Rng rng(7);

  // Position lookup (tokens are distinct here).
  auto pos_of = [&](uint32_t v) {
    return std::find(seq.begin(), seq.end(), v) - seq.begin();
  };
  int pairs = 0;
  ForEachPair(seq, opts, rng, [&](uint32_t t, uint32_t ctx) {
    const auto pt = pos_of(t);
    const auto pc = pos_of(ctx);
    EXPECT_NE(pt, pc);
    EXPECT_LE(std::abs(pt - pc), static_cast<long>(c.window));
    if (c.directional) {
      EXPECT_GT(pc, pt) << "left-context pair in directional mode";
    }
    ++pairs;
  });
  EXPECT_GT(pairs, 0);
  // Each target draws a radius b in [1, window], so the full-radius pair
  // count bounds the total, and a window of 1 (b is always 1) meets it.
  int full_radius = 0;
  const int n = static_cast<int>(seq.size());
  for (int i = 0; i < n; ++i) {
    const int lo =
        c.directional ? i : std::max(0, i - static_cast<int>(c.window));
    const int hi = std::min(n - 1, i + static_cast<int>(c.window));
    full_radius += hi - lo;
  }
  EXPECT_LE(pairs, full_radius);
  if (c.window == 1) {
    EXPECT_EQ(pairs, full_radius);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, WindowProperty,
    ::testing::Values(WindowCase{1, false}, WindowCase{1, true},
                      WindowCase{3, false}, WindowCase{3, true},
                      WindowCase{5, false}, WindowCase{8, true}));

TEST(WindowTest, SelfPairsSkipped) {
  WindowOptions opts;
  opts.window = 2;
  std::vector<uint32_t> seq = {5, 5, 5};
  Rng rng(1);
  int pairs = 0;
  ForEachPair(seq, opts, rng, [&](uint32_t, uint32_t) { ++pairs; });
  EXPECT_EQ(pairs, 0);
}

TEST(WindowTest, ZeroWindowNoPairs) {
  WindowOptions opts;
  opts.window = 0;
  std::vector<uint32_t> seq = {1, 2, 3};
  Rng rng(1);
  int pairs = 0;
  ForEachPair(seq, opts, rng, [&](uint32_t, uint32_t) { ++pairs; });
  EXPECT_EQ(pairs, 0);
}

TEST(WindowTest, SubsampleKeepsOrderAndDropsByProbability) {
  // Frequency-1.0 token with threshold tiny -> dropped most of the time.
  // Build a vocab where token 0 is hot, token 1 rare.
  DatasetSpec spec;
  spec.catalog.num_items = 100;
  spec.catalog.num_leaf_categories = 4;
  spec.catalog.num_shops = 10;
  spec.catalog.num_brands = 10;
  spec.users.num_user_types = 10;
  spec.num_train_sessions = 10;
  spec.num_test_sessions = 2;
  auto ds = SyntheticDataset::Generate(spec);
  ASSERT_TRUE(ds.ok());
  TokenSpace ts = TokenSpace::Create(&ds->catalog(), &ds->users());
  // 100 sessions of {0, 1}.
  std::vector<uint64_t> counts(ts.num_tokens(), 0);
  counts[0] = counts[1] = 100;
  Vocabulary vocab;
  ASSERT_TRUE(vocab.BuildFromCounts(counts, 1, ts).ok());

  SubsampleConfig config;
  config.item_threshold = 1e-6;
  Subsampler sub;
  sub.Build(vocab, config);
  Rng rng(11);
  std::vector<uint32_t> seq(1000, static_cast<uint32_t>(vocab.ToVocab(0)));
  std::vector<uint32_t> kept;
  SubsampleSequence(seq, sub, rng, &kept);
  EXPECT_LT(kept.size(), 200u);

  // With no subsampler everything is kept.
  Subsampler empty;
  SubsampleSequence(seq, empty, rng, &kept);
  EXPECT_EQ(kept.size(), seq.size());
}

// --------------------------- trainer ---------------------------

class TrainerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetSpec spec;
    spec.catalog.num_items = 300;
    spec.catalog.num_leaf_categories = 6;
    spec.catalog.num_shops = 30;
    spec.catalog.num_brands = 24;
    spec.users.num_user_types = 50;
    spec.num_train_sessions = 1500;
    spec.num_test_sessions = 100;
    auto ds = SyntheticDataset::Generate(spec);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<SyntheticDataset>(std::move(ds).value());
    token_space_ = TokenSpace::Create(&dataset_->catalog(), &dataset_->users());
    CorpusOptions copts;
    copts.enrich.include_item_si = false;
    copts.enrich.include_user_type = false;
    VectorSessionSource sessions(&dataset_->train_sessions());
    ASSERT_TRUE(corpus_
                    .BuildFromSource(&sessions, token_space_,
                                     dataset_->catalog(), copts)
                    .ok());
  }

  void ExpectCoOccurringItemsCloserThanRandom(uint32_t num_threads);

  std::unique_ptr<SyntheticDataset> dataset_;
  TokenSpace token_space_;
  Corpus corpus_;
};

TEST_F(TrainerFixture, RejectsBadOptions) {
  SgnsOptions opts;
  opts.negatives = 0;
  EmbeddingModel m;
  EXPECT_FALSE(SgnsTrainer(opts).Train(corpus_, &m).ok());
  opts = SgnsOptions{};
  opts.epochs = 0;
  EXPECT_FALSE(SgnsTrainer(opts).Train(corpus_, &m).ok());
  EXPECT_FALSE(SgnsTrainer(SgnsOptions{}).Train(corpus_, nullptr).ok());
}

TEST_F(TrainerFixture, TrainingMovesVectorsAndReportsStats) {
  SgnsOptions opts;
  opts.dim = 16;
  opts.epochs = 1;
  opts.negatives = 5;
  EmbeddingModel m;
  TrainStats stats;
  ASSERT_TRUE(SgnsTrainer(opts).Train(corpus_, &m, &stats).ok());
  EXPECT_EQ(m.rows(), corpus_.vocab().size());
  EXPECT_EQ(m.dim(), 16u);
  EXPECT_GT(stats.pairs_trained, 0u);
  EXPECT_EQ(stats.tokens_seen, corpus_.num_tokens());
  EXPECT_LE(stats.tokens_kept, stats.tokens_seen);
  // Output vectors must have been trained away from zero.
  double out_norm = 0.0;
  for (uint32_t r = 0; r < m.rows(); ++r) out_norm += L2Norm(m.Output(r), m.dim());
  EXPECT_GT(out_norm, 0.0);
}

TEST_F(TrainerFixture, DeterministicSingleThread) {
  SgnsOptions opts;
  opts.dim = 8;
  opts.epochs = 1;
  opts.negatives = 3;
  EmbeddingModel a, b;
  ASSERT_TRUE(SgnsTrainer(opts).Train(corpus_, &a).ok());
  ASSERT_TRUE(SgnsTrainer(opts).Train(corpus_, &b).ok());
  for (uint32_t r = 0; r < a.rows(); r += 11) {
    for (uint32_t d = 0; d < a.dim(); ++d) {
      ASSERT_EQ(a.Input(r)[d], b.Input(r)[d]);
    }
  }
}

// Items co-occurring in sessions must end up closer than random pairs —
// the basic semantic property everything else builds on.
void TrainerFixture::ExpectCoOccurringItemsCloserThanRandom(
    uint32_t num_threads) {
  SgnsOptions opts;
  opts.dim = 32;
  opts.epochs = 8;
  opts.negatives = 5;
  opts.num_threads = num_threads;
  EmbeddingModel m;
  ASSERT_TRUE(SgnsTrainer(opts).Train(corpus_, &m).ok());
  const Vocabulary& vocab = corpus_.vocab();

  Rng rng(21);
  double co_sim = 0.0, rand_sim = 0.0;
  int co_n = 0, rand_n = 0;
  for (const Session& s : dataset_->train_sessions()) {
    if (s.items.size() < 2) continue;
    const int32_t a = vocab.ToVocab(s.items[0]);
    const int32_t b = vocab.ToVocab(s.items[1]);
    if (a < 0 || b < 0 || a == b) continue;
    co_sim += CosineSimilarity(m.Input(a), m.Input(b), m.dim());
    ++co_n;
    const uint32_t r1 = static_cast<uint32_t>(rng.UniformU64(vocab.size()));
    const uint32_t r2 = static_cast<uint32_t>(rng.UniformU64(vocab.size()));
    if (r1 != r2) {
      rand_sim += CosineSimilarity(m.Input(r1), m.Input(r2), m.dim());
      ++rand_n;
    }
    if (co_n > 400) break;
  }
  ASSERT_GT(co_n, 50);
  ASSERT_GT(rand_n, 50);
  EXPECT_GT(co_sim / co_n, rand_sim / rand_n + 0.15);
}

TEST_F(TrainerFixture, CoOccurringItemsCloserThanRandom) {
  ExpectCoOccurringItemsCloserThanRandom(1);
}

// The same property with four threads, where the hot rows are trained on
// per-thread replicas and merged by delta pushes.
TEST_F(TrainerFixture, CoOccurringItemsCloserThanRandomWithReplicas) {
  SgnsOptions opts;
  opts.dim = 32;
  opts.num_threads = 4;
  ASSERT_GT(SgnsTrainer(opts).ReplicaRows(corpus_.vocab()), 0u);
  ExpectCoOccurringItemsCloserThanRandom(4);
}

TEST_F(TrainerFixture, ReplicaRowsFollowTheHotSetRule) {
  const Vocabulary& vocab = corpus_.vocab();
  SgnsOptions opts;
  opts.num_threads = 1;
  EXPECT_EQ(SgnsTrainer(opts).ReplicaRows(vocab), 0u);
  // ATNS's frequency rule...
  opts.num_threads = 4;
  opts.dim = 64;
  const uint32_t uncapped = HotPrefixSize(vocab, UINT32_MAX);
  ASSERT_GT(uncapped, 32u);
  EXPECT_EQ(SgnsTrainer(opts).ReplicaRows(vocab), std::min(uncapped, 512u));
  // ...capped so the working and base copies of both matrices fit in
  // 512 KiB per thread: 32 rows of 1024 floats.
  opts.dim = 1024;
  EXPECT_EQ(SgnsTrainer(opts).ReplicaRows(vocab), 32u);
}

// Between syncs the hot rows live on per-thread replicas, so the sync
// before a checkpoint rendezvous must push every delta. A checkpoint taken
// once all work is done must equal the returned model; a resume with no
// work left must return the checkpoint's bytes; and every hot output row,
// which starts at zero and is trained only on replicas, must be non-zero.
TEST_F(TrainerFixture, FourThreadCheckpointHoldsEveryReplicaDelta) {
  SgnsOptions opts;
  opts.dim = 16;
  opts.epochs = 2;
  opts.negatives = 5;
  opts.num_threads = 4;
  const SgnsTrainer trainer(opts);
  const uint32_t hot = trainer.ReplicaRows(corpus_.vocab());
  ASSERT_GT(hot, 0u);

  const std::string dir = SuiteDir() + "/sgns_replica_ckpt";
  std::filesystem::remove_all(dir);
  Checkpointer::Options copts;
  copts.dir = dir;
  auto ck = Checkpointer::Create(copts);
  ASSERT_TRUE(ck.ok());
  CheckpointConfig cfg;
  cfg.checkpointer = &*ck;
  // One snapshot, requested by the chunk that ends the work queue.
  cfg.interval_slots = uint64_t{opts.epochs} * corpus_.num_sequences();
  EmbeddingModel trained;
  TrainStats stats;
  ASSERT_TRUE(trainer.Train(corpus_, &trained, &stats, &cfg).ok());
  ASSERT_EQ(stats.checkpoints_saved, 1u);

  EmbeddingModel snapshot;
  TrainProgress progress;
  ASSERT_TRUE(ck->LoadLatest(&snapshot, &progress).ok());
  ASSERT_EQ(progress.next_work, cfg.interval_slots);
  auto expect_same_bytes = [](const EmbeddingModel& a,
                              const EmbeddingModel& b) {
    ASSERT_EQ(a.rows(), b.rows());
    const size_t bytes = a.dim() * sizeof(float);
    for (uint32_t r = 0; r < a.rows(); ++r) {
      ASSERT_EQ(std::memcmp(a.Input(r), b.Input(r), bytes), 0)
          << "input row " << r;
      ASSERT_EQ(std::memcmp(a.Output(r), b.Output(r), bytes), 0)
          << "output row " << r;
    }
  };
  expect_same_bytes(trained, snapshot);

  EmbeddingModel resumed = snapshot;
  CheckpointConfig resume_cfg;
  resume_cfg.resume = &progress;
  TrainStats resume_stats;
  ASSERT_TRUE(
      trainer.Train(corpus_, &resumed, &resume_stats, &resume_cfg).ok());
  EXPECT_EQ(resume_stats.pairs_trained, progress.pairs_trained);
  expect_same_bytes(resumed, snapshot);

  for (uint32_t v = 0; v < hot; ++v) {
    EXPECT_GT(L2Norm(snapshot.Output(v), snapshot.dim()), 0.0f)
        << "hot output row " << v << " lost its replica deltas";
  }
  std::filesystem::remove_all(dir);
}

TEST_F(TrainerFixture, MultiThreadedTrainingWorks) {
  SgnsOptions opts;
  opts.dim = 16;
  opts.epochs = 2;
  opts.negatives = 5;
  opts.num_threads = 3;
  EmbeddingModel m;
  TrainStats stats;
  ASSERT_TRUE(SgnsTrainer(opts).Train(corpus_, &m, &stats).ok());
  EXPECT_EQ(stats.tokens_seen, 2 * corpus_.num_tokens());
  EXPECT_GT(stats.pairs_trained, 0u);
}

// The dynamic work queue must hand every epoch x sequence slot to exactly
// one thread, including when there are (many) more threads than work chunks.
TEST_F(TrainerFixture, WorkQueueCoversAllSlotsWithExcessThreads) {
  SgnsOptions opts;
  opts.dim = 8;
  opts.epochs = 3;
  opts.negatives = 2;
  opts.num_threads = 16;
  EmbeddingModel m;
  TrainStats stats;
  ASSERT_TRUE(SgnsTrainer(opts).Train(corpus_, &m, &stats).ok());
  EXPECT_EQ(stats.tokens_seen, 3 * corpus_.num_tokens());
  EXPECT_GT(stats.pairs_trained, 0u);
}

}  // namespace
}  // namespace sisg
