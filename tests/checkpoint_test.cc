#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/io_util.h"
#include "core/matching_engine.h"
#include "core/pipeline.h"
#include "core/sisg_model.h"
#include "corpus/corpus.h"
#include "datagen/dataset.h"
#include "eval/hitrate.h"
#include "sgns/checkpoint.h"
#include "sgns/embedding_model.h"
#include "sgns/trainer.h"

namespace sisg {
namespace {

// Per-process suffix so concurrent invocations of this binary (e.g. a
// sanitizer ctest run alongside a regular one) cannot clobber each other's
// checkpoint directories mid-run.
std::string FreshDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/" + name + "." + std::to_string(getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::string FreshPath(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "/" + name + "." + std::to_string(getpid());
  std::remove(path.c_str());
  return path;
}

void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

// --------------------------- crc32 ---------------------------

TEST(Crc32Test, KnownAnswer) {
  // The canonical CRC-32 check value (IEEE 802.3 / zlib polynomial).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, ChainsAcrossCalls) {
  const char data[] = "the quick brown fox jumps over the lazy dog";
  const size_t n = sizeof(data) - 1;
  const uint32_t whole = Crc32(data, n);
  for (size_t split : {size_t{1}, size_t{7}, n - 1}) {
    EXPECT_EQ(Crc32(data + split, n - split, Crc32(data, split)), whole);
  }
}

// --------------------------- atomic file ---------------------------

TEST(AtomicFileTest, CommitPublishesAtomically) {
  const std::string path = FreshPath("atomic_commit.txt");
  auto file = AtomicFile::Create(path);
  ASSERT_TRUE(file.ok());
  std::fputs("hello", file->stream());
  // Nothing visible under the final name until Commit.
  EXPECT_EQ(FileSize(path), -1);
  ASSERT_TRUE(file->Commit().ok());
  EXPECT_EQ(FileSize(path), 5);
  EXPECT_EQ(FileSize(path + ".tmp"), -1);  // temp cleaned up
  std::remove(path.c_str());
}

TEST(AtomicFileTest, AbandonLeavesPreviousContent) {
  const std::string path = FreshPath("atomic_abandon.txt");
  {
    auto first = AtomicFile::Create(path);
    ASSERT_TRUE(first.ok());
    std::fputs("v1", first->stream());
    ASSERT_TRUE(first->Commit().ok());
  }
  {
    auto second = AtomicFile::Create(path);
    ASSERT_TRUE(second.ok());
    std::fputs("a much longer replacement that never lands", second->stream());
    second->Abandon();
  }
  EXPECT_EQ(FileSize(path), 2);  // v1 intact
  EXPECT_EQ(FileSize(path + ".tmp"), -1);
  std::remove(path.c_str());
}

// --------------------------- artifact layer ---------------------------

TEST(ArtifactTest, RoundTrip) {
  const std::string path = FreshPath("artifact_rt.bin");
  {
    auto w = ArtifactWriter::Open(path, "TESTKIND", 3);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->WriteScalar<uint64_t>(0xdeadbeefULL).ok());
    ASSERT_TRUE(w->Write("payload", 7).ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto r = ArtifactReader::Open(path, "TESTKIND");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->version(), 3u);
  EXPECT_EQ(r->payload_bytes(), 15u);
  uint64_t v = 0;
  ASSERT_TRUE(r->ReadScalar(&v).ok());
  EXPECT_EQ(v, 0xdeadbeefULL);
  char buf[8] = {0};
  ASSERT_TRUE(r->Read(buf, 7).ok());
  EXPECT_STREQ(buf, "payload");
  EXPECT_EQ(r->remaining(), 0u);
  // Reading past the payload is DataLoss, not garbage.
  EXPECT_EQ(r->Read(buf, 1).code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(ArtifactTest, KindMismatchRejected) {
  const std::string path = FreshPath("artifact_kind.bin");
  auto w = ArtifactWriter::Open(path, "KINDAAAA", 1);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w->Write("x", 1).ok());
  ASSERT_TRUE(w->Commit().ok());
  EXPECT_EQ(ArtifactReader::Open(path, "KINDBBBB").status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ArtifactTest, TruncationIsDataLoss) {
  const std::string path = FreshPath("artifact_trunc.bin");
  auto w = ArtifactWriter::Open(path, "TESTKIND", 1);
  ASSERT_TRUE(w.ok());
  std::vector<char> blob(256, 'z');
  ASSERT_TRUE(w->Write(blob.data(), blob.size()).ok());
  ASSERT_TRUE(w->Commit().ok());
  const long size = FileSize(path);
  ASSERT_GT(size, 0);
  ASSERT_EQ(::truncate(path.c_str(), size / 2), 0);
  EXPECT_EQ(ArtifactReader::Open(path, "TESTKIND").status().code(),
            StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(ArtifactTest, ByteFlipIsDataLoss) {
  const std::string path = FreshPath("artifact_flip.bin");
  auto w = ArtifactWriter::Open(path, "TESTKIND", 1);
  ASSERT_TRUE(w.ok());
  std::vector<char> blob(256, 'z');
  ASSERT_TRUE(w->Write(blob.data(), blob.size()).ok());
  ASSERT_TRUE(w->Commit().ok());
  // Flip one payload bit: the checksum must catch it.
  FlipByteAt(path, static_cast<long>(kArtifactHeaderBytes) + 100);
  EXPECT_EQ(ArtifactReader::Open(path, "TESTKIND").status().code(),
            StatusCode::kDataLoss);
  // Flip a magic byte instead: also DataLoss.
  std::remove(path.c_str());
  auto w2 = ArtifactWriter::Open(path, "TESTKIND", 1);
  ASSERT_TRUE(w2.ok());
  ASSERT_TRUE(w2->Write(blob.data(), blob.size()).ok());
  ASSERT_TRUE(w2->Commit().ok());
  FlipByteAt(path, 0);
  EXPECT_EQ(ArtifactReader::Open(path, "TESTKIND").status().code(),
            StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// Edge inputs of the one reader: each is a typed error or a clean result,
// never a crash or a SIGBUS from touching the mapping.
TEST(ArtifactTest, ZeroAndTinyFilesAreDataLoss) {
  const std::string path = FreshPath("artifact_tiny.bin");
  for (const size_t size : {size_t{0}, size_t{20}}) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string bytes(size, 'S');
    ASSERT_EQ(std::fwrite(bytes.data(), 1, size, f), size);
    std::fclose(f);
    EXPECT_EQ(ArtifactReader::Open(path, "TESTKIND").status().code(),
              StatusCode::kDataLoss)
        << size << " bytes";
  }
  std::remove(path.c_str());
}

TEST(ArtifactTest, ZeroPayloadRoundTrips) {
  const std::string path = FreshPath("artifact_empty.bin");
  {
    auto w = ArtifactWriter::Open(path, "TESTKIND", 2);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  EXPECT_EQ(FileSize(path), static_cast<long>(kArtifactHeaderBytes));
  auto r = ArtifactReader::Open(path, "TESTKIND");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->version(), 2u);
  EXPECT_EQ(r->payload_bytes(), 0u);
  EXPECT_EQ(r->remaining(), 0u);
  char byte = 0;
  EXPECT_EQ(r->Read(&byte, 1).code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(ArtifactTest, DirectoryIsRejected) {
  const std::string dir = FreshDir("artifact_dir");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  EXPECT_FALSE(ArtifactReader::Open(dir, "TESTKIND").ok());
  std::filesystem::remove_all(dir);
}

// --------------------------- model/vocab corruption ---------------------------

TEST(ArtifactCorruptionTest, EmbeddingModelByteFlipIsDataLoss) {
  EmbeddingModel m;
  ASSERT_TRUE(m.Init(20, 16, 5).ok());
  const std::string path = FreshPath("flip_model.emb");
  ASSERT_TRUE(m.Save(path).ok());
  FlipByteAt(path, static_cast<long>(kArtifactHeaderBytes) + 64);
  EXPECT_EQ(EmbeddingModel::Load(path).status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(ArtifactCorruptionTest, EmbeddingModelImplausibleShapeRejected) {
  // A well-checksummed artifact whose declared shape would overflow the
  // allocation must be rejected before any allocation happens.
  const std::string path = FreshPath("huge_model.emb");
  auto w = ArtifactWriter::Open(path, "EMBMODEL", 2);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w->WriteScalar<uint32_t>(1u << 20).ok());  // rows
  ASSERT_TRUE(w->WriteScalar<uint32_t>(1u << 20).ok());  // dim
  ASSERT_TRUE(w->Commit().ok());
  EXPECT_EQ(EmbeddingModel::Load(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// --------------------------- trainer fixture ---------------------------

class CheckpointTrainFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetSpec spec;
    spec.catalog.num_items = 300;
    spec.catalog.num_leaf_categories = 10;
    spec.catalog.num_shops = 30;
    spec.catalog.num_brands = 25;
    spec.users.num_user_types = 40;
    spec.num_train_sessions = 2000;
    spec.num_test_sessions = 300;
    auto ds = SyntheticDataset::Generate(spec);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<SyntheticDataset>(std::move(ds).value());
    token_space_ = TokenSpace::Create(&dataset_->catalog(), &dataset_->users());
    VectorSessionSource sessions(&dataset_->train_sessions());
    ASSERT_TRUE(corpus_
                    .BuildFromSource(&sessions, token_space_,
                                     dataset_->catalog(), CorpusOptions{})
                    .ok());
  }

  SgnsOptions BaseOptions() const {
    SgnsOptions o;
    o.dim = 16;
    o.epochs = 2;
    o.negatives = 5;
    return o;
  }

  void ExpectBitIdentical(const EmbeddingModel& a, const EmbeddingModel& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.dim(), b.dim());
    for (uint32_t r = 0; r < a.rows(); ++r) {
      for (uint32_t d = 0; d < a.dim(); ++d) {
        ASSERT_EQ(a.Input(r)[d], b.Input(r)[d]) << "input row " << r;
        ASSERT_EQ(a.Output(r)[d], b.Output(r)[d]) << "output row " << r;
      }
    }
  }

  double HitRateAt10(EmbeddingModel&& emb) {
    SisgConfig cfg;
    cfg.variant = SisgVariant::kSisgFU;
    SisgModel model(cfg, token_space_, corpus_.vocab(), std::move(emb));
    auto engine = model.BuildMatchingEngine();
    EXPECT_TRUE(engine.ok());
    auto res = EvaluateHitRate(
        dataset_->test_sessions(),
        [&](uint32_t item, uint32_t k) { return engine->Query(item, k); },
        {10});
    return res.hit_rate[0];
  }

  std::unique_ptr<SyntheticDataset> dataset_;
  TokenSpace token_space_;
  Corpus corpus_;
};

// --------------------------- checkpointer ---------------------------

TEST_F(CheckpointTrainFixture, CheckpointerSaveLoadPrune) {
  const std::string dir = FreshDir("ckpt_basic");
  Checkpointer::Options copts;
  copts.dir = dir;
  copts.keep = 2;
  auto ck = Checkpointer::Create(copts);
  ASSERT_TRUE(ck.ok());

  EmbeddingModel m;
  TrainProgress none;
  // Empty directory: nothing to load.
  EXPECT_EQ(ck->LoadLatest(&m, &none).code(), StatusCode::kNotFound);

  ASSERT_TRUE(m.Init(12, 8, 3).ok());
  for (uint64_t i = 1; i <= 3; ++i) {
    TrainProgress p;
    p.next_work = 100 * i;
    p.processed_tokens = 1000 * i;
    p.pairs_trained = 10 * i;
    p.tokens_kept = 900 * i;
    p.rng_states = {{i, i + 1, i + 2, i + 3}};
    p.dead_workers = {static_cast<uint32_t>(i)};
    m.Input(0)[0] = static_cast<float>(i);
    ASSERT_TRUE(ck->Save(m, p).ok());
  }
  EXPECT_EQ(ck->latest_seq(), 3u);

  EmbeddingModel loaded;
  TrainProgress p;
  ASSERT_TRUE(ck->LoadLatest(&loaded, &p).ok());
  EXPECT_EQ(p.next_work, 300u);
  EXPECT_EQ(p.processed_tokens, 3000u);
  ASSERT_EQ(p.rng_states.size(), 1u);
  EXPECT_EQ(p.rng_states[0][3], 6u);
  ASSERT_EQ(p.dead_workers.size(), 1u);
  EXPECT_EQ(p.dead_workers[0], 3u);
  EXPECT_EQ(loaded.Input(0)[0], 3.0f);

  // keep=2: checkpoint 1 pruned, 2 and 3 retained.
  EXPECT_EQ(FileSize(dir + "/ckpt-1.emb"), -1);
  EXPECT_EQ(FileSize(dir + "/ckpt-1.state"), -1);
  EXPECT_GT(FileSize(dir + "/ckpt-2.emb"), 0);
  EXPECT_GT(FileSize(dir + "/ckpt-3.emb"), 0);

  // A new Checkpointer over the same directory resumes the sequence.
  auto again = Checkpointer::Create(copts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->latest_seq(), 3u);
  std::filesystem::remove_all(dir);
}

TEST_F(CheckpointTrainFixture, CorruptedCheckpointIsDataLoss) {
  const std::string dir = FreshDir("ckpt_corrupt");
  Checkpointer::Options copts;
  copts.dir = dir;
  auto ck = Checkpointer::Create(copts);
  ASSERT_TRUE(ck.ok());
  EmbeddingModel m;
  ASSERT_TRUE(m.Init(10, 8, 3).ok());
  TrainProgress p;
  p.rng_states = {{1, 2, 3, 4}};
  ASSERT_TRUE(ck->Save(m, p).ok());
  FlipByteAt(dir + "/ckpt-1.state", static_cast<long>(kArtifactHeaderBytes) + 8);
  EmbeddingModel out;
  TrainProgress pout;
  EXPECT_EQ(ck->LoadLatest(&out, &pout).code(), StatusCode::kDataLoss);
  std::filesystem::remove_all(dir);
}

// Version 1 of TRNPROG carried the distributed trainer's (epoch,
// sequence_index) after tokens_kept. Version 2 keeps only next_work, so a
// v1 file must fail loudly instead of resuming at a misread position.
TEST_F(CheckpointTrainFixture, VersionOneProgressIsRejected) {
  const std::string dir = FreshDir("ckpt_v1");
  Checkpointer::Options copts;
  copts.dir = dir;
  auto ck = Checkpointer::Create(copts);
  ASSERT_TRUE(ck.ok());
  EmbeddingModel m;
  ASSERT_TRUE(m.Init(10, 8, 3).ok());
  TrainProgress p;
  p.rng_states = {{1, 2, 3, 4}, {5, 6, 7, 8}};
  ASSERT_TRUE(ck->Save(m, p).ok());

  auto w = ArtifactWriter::Open(dir + "/ckpt-1.state", "TRNPROG", 1);
  ASSERT_TRUE(w.ok());
  for (uint64_t v : {uint64_t{0}, uint64_t{1000}, uint64_t{10}, uint64_t{900}}) {
    ASSERT_TRUE(w->WriteScalar(v).ok());  // next_work .. tokens_kept
  }
  ASSERT_TRUE(w->WriteScalar(uint32_t{1}).ok());    // epoch
  ASSERT_TRUE(w->WriteScalar(uint64_t{42}).ok());   // sequence_index
  ASSERT_TRUE(w->WriteScalar(uint32_t{2}).ok());    // rng streams
  for (uint64_t word = 0; word < 8; ++word) {
    ASSERT_TRUE(w->WriteScalar(word).ok());
  }
  ASSERT_TRUE(w->WriteScalar(uint32_t{0}).ok());    // dead workers
  ASSERT_TRUE(w->Commit().ok());

  EmbeddingModel out;
  TrainProgress pout;
  const Status st = ck->LoadLatest(&out, &pout);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.ToString().find("version 1"), std::string::npos)
      << st.ToString();
  std::filesystem::remove_all(dir);
}

// --------------------------- crash + resume ---------------------------

TEST_F(CheckpointTrainFixture, SingleThreadCrashResumeIsBitExact) {
  const SgnsOptions opts = BaseOptions();
  const uint64_t interval = 1000;

  // Reference: checkpointing enabled, runs to completion.
  const std::string ref_dir = FreshDir("ckpt_ref");
  Checkpointer::Options ref_copts;
  ref_copts.dir = ref_dir;
  auto ref_ck = Checkpointer::Create(ref_copts);
  ASSERT_TRUE(ref_ck.ok());
  CheckpointConfig ref_cfg;
  ref_cfg.checkpointer = &*ref_ck;
  ref_cfg.interval_slots = interval;
  EmbeddingModel ref_model;
  TrainStats ref_stats;
  ASSERT_TRUE(
      SgnsTrainer(opts).Train(corpus_, &ref_model, &ref_stats, &ref_cfg).ok());
  ASSERT_GE(ref_stats.checkpoints_saved, 2u);

  // Crashed run: aborts right after the first checkpoint commits.
  const std::string crash_dir = FreshDir("ckpt_crash");
  Checkpointer::Options crash_copts;
  crash_copts.dir = crash_dir;
  auto crash_ck = Checkpointer::Create(crash_copts);
  ASSERT_TRUE(crash_ck.ok());
  CheckpointConfig crash_cfg;
  crash_cfg.checkpointer = &*crash_ck;
  crash_cfg.interval_slots = interval;
  crash_cfg.crash_after_saves = 1;
  EmbeddingModel crash_model;
  TrainStats crash_stats;
  const Status crashed =
      SgnsTrainer(opts).Train(corpus_, &crash_model, &crash_stats, &crash_cfg);
  EXPECT_EQ(crashed.code(), StatusCode::kAborted);
  EXPECT_EQ(crash_stats.checkpoints_saved, 1u);

  // Resume from the durable checkpoint and finish.
  auto resume_ck = Checkpointer::Create(crash_copts);
  ASSERT_TRUE(resume_ck.ok());
  EmbeddingModel resumed_model;
  TrainProgress progress;
  ASSERT_TRUE(resume_ck->LoadLatest(&resumed_model, &progress).ok());
  EXPECT_GT(progress.next_work, 0u);
  CheckpointConfig resume_cfg;
  resume_cfg.checkpointer = &*resume_ck;
  resume_cfg.interval_slots = interval;
  resume_cfg.resume = &progress;
  TrainStats resume_stats;
  ASSERT_TRUE(SgnsTrainer(opts)
                  .Train(corpus_, &resumed_model, &resume_stats, &resume_cfg)
                  .ok());

  // The crash never happened, as far as the weights can tell.
  ExpectBitIdentical(ref_model, resumed_model);
  EXPECT_EQ(ref_stats.tokens_seen, resume_stats.tokens_seen);
  EXPECT_EQ(ref_stats.pairs_trained, resume_stats.pairs_trained);
  std::filesystem::remove_all(ref_dir);
  std::filesystem::remove_all(crash_dir);
}

TEST_F(CheckpointTrainFixture, ResumeContinuesLrSchedule) {
  const SgnsOptions opts = BaseOptions();
  const std::string dir = FreshDir("ckpt_lr");
  Checkpointer::Options copts;
  copts.dir = dir;
  auto ck = Checkpointer::Create(copts);
  ASSERT_TRUE(ck.ok());
  CheckpointConfig cfg;
  cfg.checkpointer = &*ck;
  cfg.interval_slots = 1000;
  cfg.crash_after_saves = 1;
  EmbeddingModel model;
  TrainStats crash_stats;
  EXPECT_EQ(
      SgnsTrainer(opts).Train(corpus_, &model, &crash_stats, &cfg).code(),
      StatusCode::kAborted);
  // A fresh run starts at the configured learning rate...
  EXPECT_FLOAT_EQ(crash_stats.lr_start, opts.learning_rate);

  auto resume_ck = Checkpointer::Create(copts);
  ASSERT_TRUE(resume_ck.ok());
  EmbeddingModel resumed;
  TrainProgress progress;
  ASSERT_TRUE(resume_ck->LoadLatest(&resumed, &progress).ok());
  CheckpointConfig resume_cfg;
  resume_cfg.checkpointer = &*resume_ck;
  resume_cfg.interval_slots = 1000;
  resume_cfg.resume = &progress;
  TrainStats resume_stats;
  ASSERT_TRUE(SgnsTrainer(opts)
                  .Train(corpus_, &resumed, &resume_stats, &resume_cfg)
                  .ok());
  // ...while the resumed run continues the decayed schedule exactly where
  // the checkpoint left it: lr0 * (1 - tokens_done / planned_tokens).
  const uint64_t planned =
      static_cast<uint64_t>(opts.epochs) * corpus_.num_tokens();
  const float expected_lr =
      opts.learning_rate *
      (1.0f - static_cast<float>(progress.processed_tokens) /
                  static_cast<float>(planned));
  EXPECT_FLOAT_EQ(resume_stats.lr_start, expected_lr);
  EXPECT_LT(resume_stats.lr_start, crash_stats.lr_start);
  EXPECT_GT(resume_stats.lr_start, resume_stats.lr_end);
  std::filesystem::remove_all(dir);
}

TEST_F(CheckpointTrainFixture, MultiThreadCrashResumeReachesQuality) {
  // 4-thread (hogwild) runs crash after a snapshot, then resume with the
  // same threads. The baseline is the snapshots they resumed from, scored as
  // loaded: it does not move with a resumed run's thread timing, where an
  // uninterrupted hogwild run would. One run is too noisy to judge (4-thread
  // HR@10 spans ~0.3-0.6 on this fixture; a 1/4 snapshot can score 0.43 and
  // a resume can end 15% below its 3/4 snapshot), so each crash point is run
  // kRuns times and the medians are compared. Two crash points:
  //  - at 1/4 of the work (1500 of 6000 slots), the resumed runs must end
  //    above their snapshots: a resume that restores the rows but trains no
  //    further (LR 0, pairs skipped) ends at the snapshots' quality;
  //  - at 3/4, they must keep 0.85 of it: a resume that lost the
  //    checkpointed rows cannot make up the quality in the quarter of
  //    training left.
  constexpr int kRuns = 5;
  SgnsOptions opts = BaseOptions();
  opts.num_threads = 4;
  opts.epochs = 3;
  const uint64_t total_work =
      static_cast<uint64_t>(opts.epochs) * corpus_.num_sequences();
  ASSERT_EQ(total_work, 6000u);

  // Median HR@10 of the snapshots and of the resumed runs.
  struct Scores {
    double snapshot = 0;
    double resumed = 0;
  };
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const auto crash_and_resume = [&](uint64_t crash_slot, const char* name,
                                    Scores* out) {
    std::vector<double> snapshots, resumes;
    for (int run = 0; run < kRuns; ++run) {
      const std::string dir = FreshDir(name);
      Checkpointer::Options copts;
      copts.dir = dir;
      auto ck = Checkpointer::Create(copts);
      ASSERT_TRUE(ck.ok());
      CheckpointConfig cfg;
      cfg.checkpointer = &*ck;
      cfg.interval_slots = crash_slot;
      cfg.crash_after_saves = 1;
      EmbeddingModel model;
      EXPECT_EQ(
          SgnsTrainer(opts).Train(corpus_, &model, nullptr, &cfg).code(),
          StatusCode::kAborted);

      auto resume_ck = Checkpointer::Create(copts);
      ASSERT_TRUE(resume_ck.ok());
      EmbeddingModel snapshot;
      TrainProgress snapshot_progress;
      ASSERT_TRUE(resume_ck->LoadLatest(&snapshot, &snapshot_progress).ok());
      snapshots.push_back(HitRateAt10(std::move(snapshot)));

      EmbeddingModel resumed;
      TrainProgress progress;
      ASSERT_TRUE(resume_ck->LoadLatest(&resumed, &progress).ok());
      ASSERT_EQ(progress.rng_states.size(), 4u);
      CheckpointConfig resume_cfg;
      resume_cfg.checkpointer = &*resume_ck;
      resume_cfg.interval_slots = crash_slot;
      resume_cfg.resume = &progress;
      TrainStats resume_stats;
      ASSERT_TRUE(SgnsTrainer(opts)
                      .Train(corpus_, &resumed, &resume_stats, &resume_cfg)
                      .ok());
      EXPECT_EQ(resume_stats.tokens_seen,
                static_cast<uint64_t>(opts.epochs) * corpus_.num_tokens());
      resumes.push_back(HitRateAt10(std::move(resumed)));
      std::filesystem::remove_all(dir);
    }
    out->snapshot = median(snapshots);
    out->resumed = median(resumes);
  };

  Scores early;
  crash_and_resume(total_work / 4, "ckpt_mt_early", &early);
  EXPECT_GT(early.resumed, early.snapshot)
      << "resumed runs did not train past their 1/4 snapshots";

  Scores late;
  crash_and_resume(total_work * 3 / 4, "ckpt_mt_late", &late);
  ASSERT_GT(late.snapshot, 0.05);
  EXPECT_GT(late.resumed, 0.85 * late.snapshot)
      << "resumed quality collapsed: " << late.resumed
      << " vs the 3/4 snapshots' " << late.snapshot;
}

TEST_F(CheckpointTrainFixture, ResumeValidatesThreadCountAndPosition) {
  SgnsOptions opts = BaseOptions();
  opts.num_threads = 2;
  TrainProgress progress;
  progress.rng_states = {{1, 2, 3, 4}};  // one stream, trainer wants two
  progress.next_work = 1;
  CheckpointConfig cfg;
  cfg.resume = &progress;
  EmbeddingModel model;
  ASSERT_TRUE(model.Init(corpus_.vocab().size(), opts.dim, opts.seed).ok());
  EXPECT_EQ(SgnsTrainer(opts).Train(corpus_, &model, nullptr, &cfg).code(),
            StatusCode::kFailedPrecondition);

  progress.rng_states = {{1, 2, 3, 4}, {5, 6, 7, 8}};
  progress.next_work = 1ull << 60;  // beyond the work queue
  EXPECT_EQ(SgnsTrainer(opts).Train(corpus_, &model, nullptr, &cfg).code(),
            StatusCode::kInvalidArgument);
}

// ------------------------ pipeline --resume ------------------------

TEST_F(CheckpointTrainFixture, UnparsableLatestIsDataLoss) {
  const std::string dir = FreshDir("ckpt_bad_latest");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(WriteFileAtomic(dir + "/LATEST", "not-a-seq\n").ok());
  Checkpointer::Options copts;
  copts.dir = dir;
  EXPECT_EQ(Checkpointer::Create(copts).status().code(), StatusCode::kDataLoss);
  std::filesystem::remove_all(dir);
}

class PipelineResumeTest : public CheckpointTrainFixture,
                           public ::testing::WithParamInterface<bool> {
 protected:
  /// The local trainer at one thread, or the distributed one.
  SisgConfig Config(const std::string& checkpoint_dir, bool resume) const {
    SisgConfig c;
    c.variant = SisgVariant::kSisgFU;
    c.sgns = BaseOptions();
    c.distributed = GetParam();
    c.dist.num_workers = 3;
    c.checkpoint_dir = checkpoint_dir;
    c.checkpoint_interval = 300;
    c.resume = resume;
    return c;
  }
};

TEST_P(PipelineResumeTest, ResumeIntoEmptyDirIsAFreshRun) {
  // A job that crashed before its first checkpoint restarts with the same
  // command: --resume over a directory with no LATEST trains from scratch,
  // bit for bit like a run without --resume.
  const std::string fresh_dir = FreshDir("resume_fresh");
  const std::string empty_dir = FreshDir("resume_empty");
  auto fresh = SisgPipeline(Config(fresh_dir, false)).Train(*dataset_);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto resumed = SisgPipeline(Config(empty_dir, true)).Train(*dataset_);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectBitIdentical(resumed->embeddings(), fresh->embeddings());
  std::filesystem::remove_all(fresh_dir);
  std::filesystem::remove_all(empty_dir);
}

TEST_P(PipelineResumeTest, UnparsableLatestFailsInsteadOfRestarting) {
  const std::string dir = FreshDir("resume_bad_latest");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(WriteFileAtomic(dir + "/LATEST", "\n").ok());
  const auto run = SisgPipeline(Config(dir, true)).Train(*dataset_);
  EXPECT_EQ(run.status().code(), StatusCode::kDataLoss)
      << run.status().ToString();
  EXPECT_EQ(FileSize(dir + "/ckpt-1.emb"), -1);  // nothing was written
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(LocalAndDistributed, PipelineResumeTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Distributed" : "Local";
                         });

}  // namespace
}  // namespace sisg
