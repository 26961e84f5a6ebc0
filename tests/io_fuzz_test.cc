// Seeded corruption fuzzing of every on-disk artifact kind: random
// truncations and byte flips over saved embedding models, vocabularies,
// packed corpora, corpus caches, int8 arenas and serving arenas must always
// yield a typed DataLoss / InvalidArgument — never a crash, never a
// partially loaded object. The SISGART1 framing makes this provable: the CRC covers the
// whole payload and every header byte (magic, kind, version, reserved,
// declared size, checksum) is validated on open.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "common/io_util.h"
#include "common/quant.h"
#include "common/status.h"
#include "core/matching_engine.h"
#include "corpus/corpus.h"
#include "corpus/packed_corpus.h"
#include "corpus/vocabulary.h"
#include "datagen/dataset.h"
#include "sgns/embedding_model.h"
#include "suite_dir.h"

namespace sisg {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[1 << 14];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

/// One artifact under test: the file the fuzzer mutates plus a loader that
/// attempts a full load through the production code path.
struct ArtifactCase {
  std::string name;
  std::string file;
  std::function<Status()> load;
};

class IoFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::string dir = SuiteDir();

    // A small but real corpus so the vocab / packed / cache artifacts have
    // representative payloads (multiple sections, non-trivial sizes).
    DatasetSpec spec;
    spec.catalog.num_items = 300;
    spec.catalog.num_leaf_categories = 6;
    spec.catalog.num_shops = 25;
    spec.catalog.num_brands = 20;
    spec.users.num_user_types = 40;
    spec.num_train_sessions = 800;
    spec.num_test_sessions = 10;
    auto ds = SyntheticDataset::Generate(spec);
    ASSERT_TRUE(ds.ok());
    dataset_ = new SyntheticDataset(std::move(ds).value());
    token_space_ = new TokenSpace(
        TokenSpace::Create(&dataset_->catalog(), &dataset_->users()));
    corpus_ = new Corpus();
    VectorSessionSource sessions(&dataset_->train_sessions());
    ASSERT_TRUE(corpus_
                    ->BuildFromSource(&sessions, *token_space_,
                                      dataset_->catalog(), CorpusOptions{})
                    .ok());

    cases_ = new std::vector<ArtifactCase>();

    const std::string vocab_path = dir + "/fuzz.vocab_only";
    ASSERT_TRUE(corpus_->vocab().Save(vocab_path).ok());
    cases_->push_back({"vocab", vocab_path, [vocab_path] {
                         return Vocabulary::Load(vocab_path).status();
                       }});

    // The corpus cache is two artifacts behind one prefix; fuzz each file
    // while the sibling stays pristine.
    const std::string cache_prefix = dir + "/fuzz_cache";
    ASSERT_TRUE(corpus_->Save(cache_prefix).ok());
    const CorpusOptions cache_opts = corpus_->options();
    const auto load_cache = [cache_prefix, cache_opts] {
      return Corpus::Load(cache_prefix, cache_opts, *token_space_).status();
    };
    cases_->push_back({"corpus_cache.corpus", cache_prefix + ".corpus",
                       load_cache});
    cases_->push_back({"corpus_cache.vocab", cache_prefix + ".vocab",
                       load_cache});

    const std::string emb_path = dir + "/fuzz.emb";
    EmbeddingModel model;
    ASSERT_TRUE(model.Init(128, 24, 7).ok());
    for (uint32_t r = 0; r < model.rows(); ++r) {
      for (uint32_t d = 0; d < model.dim(); ++d) {
        model.Output(r)[d] = 0.01f * static_cast<float>(r + d);
      }
    }
    ASSERT_TRUE(model.Save(emb_path).ok());
    cases_->push_back({"embedding_model", emb_path, [emb_path] {
                         return EmbeddingModel::Load(emb_path).status();
                       }});

    std::mt19937 rng(123);
    std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
    std::vector<float> data(256 * 16);
    for (float& v : data) v = unit(rng);

    // Quantized / arena artifacts. The mmap loaders validate the whole file
    // (CRC included) before handing out a mapping, so they must reject every
    // mutation exactly like the heap loaders do.
    const std::string qnt_path = dir + "/fuzz.qarena";
    Int8Arena qarena;
    ASSERT_TRUE(qarena.BuildFromRows(data.data(), 256, 16, 16).ok());
    ASSERT_TRUE(qarena.Save(qnt_path).ok());
    cases_->push_back({"int8_arena.heap", qnt_path, [qnt_path] {
                         return Int8Arena::Load(qnt_path, false).status();
                       }});
    cases_->push_back({"int8_arena.mmap", qnt_path, [qnt_path] {
                         return Int8Arena::Load(qnt_path, true).status();
                       }});

    const std::string arena_path = dir + "/fuzz.arena";
    MatchingEngine arena_src;
    ASSERT_TRUE(arena_src
                    .Build(data, {}, 256, 16, SimilarityMode::kCosineInput)
                    .ok());
    ASSERT_TRUE(arena_src.SaveArena(arena_path).ok());
    cases_->push_back({"serving_arena.heap", arena_path, [arena_path] {
                         MatchingEngine e;
                         return e.LoadArena(arena_path, false);
                       }});
    cases_->push_back({"serving_arena.mmap", arena_path, [arena_path] {
                         MatchingEngine e;
                         return e.LoadArena(arena_path, true);
                       }});

    for (const ArtifactCase& c : *cases_) {
      pristine_.push_back(ReadFileBytes(c.file));
      ASSERT_GT(pristine_.back().size(), 36u) << c.name;
    }
  }

  static void TearDownTestSuite() {
    for (const ArtifactCase& c : *cases_) std::remove(c.file.c_str());
    delete cases_;
    cases_ = nullptr;
    pristine_.clear();
    delete corpus_;
    corpus_ = nullptr;
    delete token_space_;
    token_space_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  void TearDown() override {
    // Whatever a test did, leave every artifact pristine for the next one.
    for (size_t i = 0; i < cases_->size(); ++i) {
      WriteFileBytes((*cases_)[i].file, pristine_[i]);
    }
  }

  static void ExpectTypedFailure(const ArtifactCase& c, const Status& st,
                                 const std::string& what) {
    ASSERT_FALSE(st.ok()) << c.name << ": " << what
                          << " loaded successfully from corrupt bytes";
    ASSERT_TRUE(st.code() == StatusCode::kDataLoss ||
                st.code() == StatusCode::kInvalidArgument)
        << c.name << ": " << what << " produced untyped error: "
        << st.ToString();
  }

  static SyntheticDataset* dataset_;
  static TokenSpace* token_space_;
  static Corpus* corpus_;
  static std::vector<ArtifactCase>* cases_;
  static std::vector<std::string> pristine_;
};

SyntheticDataset* IoFuzzTest::dataset_ = nullptr;
TokenSpace* IoFuzzTest::token_space_ = nullptr;
Corpus* IoFuzzTest::corpus_ = nullptr;
std::vector<ArtifactCase>* IoFuzzTest::cases_ = nullptr;
std::vector<std::string> IoFuzzTest::pristine_;

TEST_F(IoFuzzTest, PristineArtifactsLoad) {
  for (const ArtifactCase& c : *cases_) {
    const Status st = c.load();
    EXPECT_TRUE(st.ok()) << c.name << ": " << st.ToString();
  }
}

TEST_F(IoFuzzTest, TruncationsAlwaysRejected) {
  std::mt19937_64 rng(0xF0220807);
  for (size_t i = 0; i < cases_->size(); ++i) {
    const ArtifactCase& c = (*cases_)[i];
    const std::string& orig = pristine_[i];
    std::vector<size_t> cuts = {0, 1, 8, 17, 35, 36, orig.size() - 1};
    std::uniform_int_distribution<size_t> cut_dist(1, orig.size() - 1);
    for (int r = 0; r < 24; ++r) cuts.push_back(cut_dist(rng));
    for (const size_t cut : cuts) {
      WriteFileBytes(c.file, orig.substr(0, cut));
      ExpectTypedFailure(c, c.load(),
                         "truncated to " + std::to_string(cut) + " bytes");
    }
    // Trailing garbage is a size mismatch, not silently ignored bytes.
    WriteFileBytes(c.file, orig + std::string(3, '\x5a'));
    ExpectTypedFailure(c, c.load(), "3 appended garbage bytes");
    WriteFileBytes(c.file, orig);
  }
}

TEST_F(IoFuzzTest, SeededByteFlipsAlwaysRejected) {
  std::mt19937_64 rng(0xB17F11D5);
  for (size_t i = 0; i < cases_->size(); ++i) {
    const ArtifactCase& c = (*cases_)[i];
    const std::string& orig = pristine_[i];
    std::uniform_int_distribution<size_t> byte_dist(0, orig.size() - 1);
    std::uniform_int_distribution<int> bit_dist(0, 7);
    for (int r = 0; r < 96; ++r) {
      // Bias one third of the flips into the 36-byte header, where each
      // field has its own dedicated validation path.
      const size_t idx = (r % 3 == 0)
                             ? byte_dist(rng) % 36
                             : byte_dist(rng);
      const int bit = bit_dist(rng);
      std::string mutated = orig;
      mutated[idx] = static_cast<char>(mutated[idx] ^ (1 << bit));
      WriteFileBytes(c.file, mutated);
      ExpectTypedFailure(c, c.load(),
                         "bit " + std::to_string(bit) + " of byte " +
                             std::to_string(idx) + " flipped");
    }
    WriteFileBytes(c.file, orig);
    EXPECT_TRUE(c.load().ok()) << c.name << " failed to load after restore";
  }
}

// A doctored artifact can carry a perfectly valid CRC (rewritten by an
// ArtifactWriter), so the shape metadata inside the payload gets its own
// validation layer — these must all fail as DataLoss, never load partially.
TEST_F(IoFuzzTest, ValidCrcShapeMismatchesRejected) {
  const std::string dir = SuiteDir();

  const auto expect_dataloss = [](const Status& st, const std::string& what) {
    ASSERT_FALSE(st.ok()) << what << " loaded successfully";
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << what << ": "
                                                << st.ToString();
  };

  // QNTARENA whose group size disagrees with its dim.
  {
    const std::string p = dir + "/mismatch.qarena";
    auto w = ArtifactWriter::Open(p, "QNTARENA", 2);
    ASSERT_TRUE(w.ok());
    const uint32_t num_rows = 4, dim = 16, bad_group = 64, data_off = 92;
    ASSERT_TRUE(w->WriteScalar(num_rows).ok());
    ASSERT_TRUE(w->WriteScalar(dim).ok());
    ASSERT_TRUE(w->WriteScalar(bad_group).ok());
    ASSERT_TRUE(w->WriteScalar(data_off).ok());
    ASSERT_TRUE(w->Commit().ok());
    expect_dataloss(Int8Arena::Load(p, false).status(), "qarena bad group heap");
    expect_dataloss(Int8Arena::Load(p, true).status(), "qarena bad group mmap");
    std::remove(p.c_str());
  }

  // QNTARENA with a consistent prologue but a missing code block.
  {
    const std::string p = dir + "/short.qarena";
    auto w = ArtifactWriter::Open(p, "QNTARENA", 2);
    ASSERT_TRUE(w.ok());
    // meta = 16 + 4 rows * 8B params = 48; file offset 36 + 48 = 84 rounds
    // up to 128, so the correct data_off is 92 — but no codes follow.
    const uint32_t num_rows = 4, dim = 16, group = 256, data_off = 92;
    ASSERT_TRUE(w->WriteScalar(num_rows).ok());
    ASSERT_TRUE(w->WriteScalar(dim).ok());
    ASSERT_TRUE(w->WriteScalar(group).ok());
    ASSERT_TRUE(w->WriteScalar(data_off).ok());
    ASSERT_TRUE(w->Commit().ok());
    expect_dataloss(Int8Arena::Load(p, false).status(), "qarena no codes heap");
    expect_dataloss(Int8Arena::Load(p, true).status(), "qarena no codes mmap");
    std::remove(p.c_str());
  }

  // A QNTARENA v1 file (row-major codes) is refused with a typed error, not
  // misread as the group layout.
  {
    const std::string p = dir + "/v1.qarena";
    auto w = ArtifactWriter::Open(p, "QNTARENA", 1);
    ASSERT_TRUE(w.ok());
    const uint32_t num_rows = 4, dim = 16, stride = 64, data_off = 92;
    for (uint32_t field : {num_rows, dim, stride, data_off}) {
      ASSERT_TRUE(w->WriteScalar(field).ok());
    }
    ASSERT_TRUE(w->Commit().ok());
    for (bool use_mmap : {false, true}) {
      const Status st = Int8Arena::Load(p, use_mmap).status();
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    }
    std::remove(p.c_str());
  }

  // EMBARENA claiming more candidate rows than items (and a bogus mode).
  for (const uint32_t bad : {0u, 1u}) {
    const std::string p = dir + "/mismatch.arena";
    auto w = ArtifactWriter::Open(p, "EMBARENA", 1);
    ASSERT_TRUE(w.ok());
    const uint32_t num_items = 2, dim = 8;
    const uint32_t num_cand = bad == 0 ? 5u : 2u;  // 5 > num_items
    const uint32_t mode = bad == 0 ? 0u : 7u;      // modes are 0 and 1
    const uint32_t stride = 16, data_off = 92;
    ASSERT_TRUE(w->WriteScalar(num_items).ok());
    ASSERT_TRUE(w->WriteScalar(dim).ok());
    ASSERT_TRUE(w->WriteScalar(num_cand).ok());
    ASSERT_TRUE(w->WriteScalar(mode).ok());
    ASSERT_TRUE(w->WriteScalar(stride).ok());
    ASSERT_TRUE(w->WriteScalar(data_off).ok());
    ASSERT_TRUE(w->Commit().ok());
    MatchingEngine heap_engine, mmap_engine;
    expect_dataloss(heap_engine.LoadArena(p, false), "arena shape heap");
    expect_dataloss(mmap_engine.LoadArena(p, true), "arena shape mmap");
    std::remove(p.c_str());
  }
}

}  // namespace
}  // namespace sisg
