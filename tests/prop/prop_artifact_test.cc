// Artifact property suite: every SISGART1 producer with a direct
// generate/save/load API round-trips generated content exactly (heap and
// mmap loads agreeing where both exist), and *generated* corruption — byte
// flips, truncation, trailing garbage, zeroed ranges, header damage — always
// yields a typed error from the loader, never a crash or a partial load.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/io_util.h"
#include "common/quant.h"
#include "common/simd.h"
#include "core/embedding_arena.h"
#include "corpus/corpus.h"
#include "corpus/packed_corpus.h"
#include "corpus/vocabulary.h"
#include "datagen/catalog.h"
#include "datagen/session_generator.h"
#include "datagen/user_universe.h"
#include "gtest/gtest.h"
#include "prop.h"
#include "sgns/embedding_model.h"

namespace sisg::prop {
namespace {

std::string FreshPath(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "/" + name + "." + std::to_string(getpid());
  std::remove(path.c_str());
  return path;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Fixture world for vocabulary/corpus artifacts (the token space is the
/// fixed part; the generated part is the counts/sequences).
struct World {
  ItemCatalog catalog;
  UserUniverse users;
  TokenSpace token_space;
};

const World& FixtureWorld() {
  static World* w = [] {
    auto* world = new World;
    CatalogConfig cat;
    cat.num_items = 80;
    cat.num_leaf_categories = 4;
    cat.num_shops = 10;
    cat.num_brands = 12;
    cat.brands_per_leaf = 3;
    cat.shops_per_leaf = 3;
    EXPECT_TRUE(world->catalog.Build(cat).ok());
    UserUniverseConfig uc;
    uc.num_user_types = 12;
    uc.num_preferred_tops = 1;
    EXPECT_TRUE(world->users.Build(uc, world->catalog.num_tops()).ok());
    world->token_space = TokenSpace::Create(&world->catalog, &world->users);
    return world;
  }();
  return *w;
}

/// The packed corpus is persisted only as a section of the corpus cache;
/// the round trip pins AppendTo/ReadFrom through an artifact holding just it.
Status SavePackedSection(const PackedCorpus& pc, const std::string& path) {
  SISG_ASSIGN_OR_RETURN(ArtifactWriter w,
                        ArtifactWriter::Open(path, "PACKTEST", 1));
  SISG_RETURN_IF_ERROR(pc.AppendTo(&w));
  return w.Commit();
}

StatusOr<PackedCorpus> LoadPackedSection(const std::string& path) {
  SISG_ASSIGN_OR_RETURN(ArtifactReader r,
                        ArtifactReader::Open(path, "PACKTEST"));
  return PackedCorpus::ReadFrom(&r, 0);
}

// ------------------------------ round trips ------------------------------

TEST(PropArtifact, EmbeddingModelRoundTripsBitExact) {
  const Result r = ForAllSeeded<uint64_t>(
      "embmodel_round_trip", 100,
      Gen<uint64_t>([](Rng& rng) { return rng.Next(); }),
      [](const uint64_t& seed) -> std::string {
        Rng rng(seed);
        const uint32_t rows = static_cast<uint32_t>(rng.UniformInt(1, 40));
        const uint32_t dim = static_cast<uint32_t>(rng.UniformInt(1, 48));
        EmbeddingModel m;
        if (!m.Init(rows, dim, rng.Next()).ok()) return "init failed";
        for (uint32_t row = 0; row < rows; ++row) {
          for (uint32_t i = 0; i < dim; ++i) {
            m.Input(row)[i] = static_cast<float>(rng.Gaussian());
            m.Output(row)[i] = static_cast<float>(rng.Gaussian());
          }
        }
        const std::string path = FreshPath("prop_art_embmodel");
        if (!m.Save(path).ok()) return "save failed";
        auto loaded = EmbeddingModel::Load(path);
        std::remove(path.c_str());
        if (!loaded.ok()) return "load failed: " + loaded.status().ToString();
        if (loaded->rows() != rows || loaded->dim() != dim) {
          return "shape mismatch after load";
        }
        for (uint32_t row = 0; row < rows; ++row) {
          if (std::memcmp(loaded->Input(row), m.Input(row),
                          dim * sizeof(float)) != 0 ||
              std::memcmp(loaded->Output(row), m.Output(row),
                          dim * sizeof(float)) != 0) {
            return "row " + std::to_string(row) + " not bit-identical";
          }
        }
        return "";
      });
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropArtifact, VocabularyRoundTripsFromGeneratedCounts) {
  const World& world = FixtureWorld();
  const Result r = ForAllSeeded<uint64_t>(
      "vocab_round_trip", 100,
      Gen<uint64_t>([](Rng& rng) { return rng.Next(); }),
      [&world](const uint64_t& seed) -> std::string {
        Rng rng(seed);
        std::vector<uint64_t> counts(world.token_space.num_tokens(), 0);
        const size_t nonzero = 1 + rng.UniformU64(counts.size());
        for (size_t i = 0; i < nonzero; ++i) {
          counts[rng.UniformU64(counts.size())] = 1 + rng.UniformU64(50);
        }
        counts[0] = 10;  // at least one survivor at any min_count <= 10
        const uint32_t min_count =
            static_cast<uint32_t>(rng.UniformInt(1, 3));
        Vocabulary v;
        const Status st = v.BuildFromCounts(
            std::span<const uint64_t>(counts), min_count, world.token_space);
        if (!st.ok()) return "build failed: " + st.ToString();
        const std::string path = FreshPath("prop_art_vocab");
        if (!v.Save(path).ok()) return "save failed";
        auto loaded = Vocabulary::Load(path);
        std::remove(path.c_str());
        if (!loaded.ok()) return "load failed: " + loaded.status().ToString();
        if (loaded->size() != v.size()) return "size mismatch";
        for (uint32_t id = 0; id < v.size(); ++id) {
          if (loaded->ToToken(id) != v.ToToken(id) ||
              loaded->Frequency(id) != v.Frequency(id) ||
              loaded->ClassOf(id) != v.ClassOf(id)) {
            return "entry " + std::to_string(id) + " differs after load";
          }
        }
        return "";
      });
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropArtifact, PackedCorpusRoundTripsGeneratedSequences) {
  const Result r = ForAllSeeded<std::vector<std::vector<uint32_t>>>(
      "packcorp_round_trip", 100,
      VectorOf<std::vector<uint32_t>>(
          1, 40, VectorOf<uint32_t>(1, 12, InRange<uint32_t>(0, 5000))),
      [](const std::vector<std::vector<uint32_t>>& seqs) -> std::string {
        PackedCorpus pc;
        for (const auto& s : seqs) pc.AppendSequence(s);
        const std::string path = FreshPath("prop_art_packcorp");
        if (!SavePackedSection(pc, path).ok()) return "save failed";
        auto loaded = LoadPackedSection(path);
        std::remove(path.c_str());
        if (!loaded.ok()) return "load failed: " + loaded.status().ToString();
        if (!(*loaded == pc)) return "loaded corpus != saved corpus";
        return "";
      },
      ShrinkVector<std::vector<uint32_t>>(
          ShrinkVector<uint32_t>(ShrinkIntTowards<uint32_t>(0), 1), 1));
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropArtifact, Int8ArenaHeapAndMmapLoadsAgree) {
  const Result r = ForAllSeeded<uint64_t>(
      "qntarena_round_trip", 100,
      Gen<uint64_t>([](Rng& rng) { return rng.Next(); }),
      [](const uint64_t& seed) -> std::string {
        Rng rng(seed);
        const uint32_t n = static_cast<uint32_t>(rng.UniformInt(1, 50));
        const uint32_t dim = static_cast<uint32_t>(rng.UniformInt(1, 64));
        const size_t stride = AlignedRowStride(dim);
        std::vector<float> rows(static_cast<size_t>(n) * stride, 0.0f);
        for (uint32_t row = 0; row < n; ++row) {
          for (uint32_t i = 0; i < dim; ++i) {
            rows[row * stride + i] = static_cast<float>(rng.Gaussian());
          }
        }
        Int8Arena arena;
        if (!arena.BuildFromRows(rows.data(), n, dim, stride).ok()) {
          return "build failed";
        }
        const std::string path = FreshPath("prop_art_qnt");
        if (!arena.Save(path).ok()) return "save failed";
        std::string verdict;
        auto heap = Int8Arena::Load(path, /*use_mmap=*/false);
        auto mmapd = Int8Arena::Load(path, /*use_mmap=*/true);
        if (!heap.ok() || !mmapd.ok()) {
          verdict = "load failed";
        } else {
          for (const Int8Arena* got : {&*heap, &*mmapd}) {
            if (got->num_rows() != n || got->dim() != dim) {
              verdict = "shape mismatch";
              break;
            }
            if (std::memcmp(got->codes(), arena.codes(), arena.code_bytes()) !=
                0) {
              verdict = "code block differs";
              break;
            }
            for (uint32_t row = 0; row < n && verdict.empty(); ++row) {
              if (std::memcmp(&got->scales()[row], &arena.scales()[row],
                              sizeof(float)) != 0 ||
                  std::memcmp(&got->mins()[row], &arena.mins()[row],
                              sizeof(float)) != 0) {
                verdict = "row " + std::to_string(row) + " differs";
              }
            }
            if (!verdict.empty()) break;
          }
        }
        std::remove(path.c_str());
        return verdict;
      });
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropArtifact, ServingArenaRoundTripsGeneratedViews) {
  const Result r = ForAllSeeded<uint64_t>(
      "embarena_round_trip", 100,
      Gen<uint64_t>([](Rng& rng) { return rng.Next(); }),
      [](const uint64_t& seed) -> std::string {
        Rng rng(seed);
        const uint32_t num_items = static_cast<uint32_t>(rng.UniformInt(1, 40));
        const uint32_t dim = static_cast<uint32_t>(rng.UniformInt(1, 32));
        const uint32_t num_cand =
            static_cast<uint32_t>(rng.UniformInt(1, num_items));
        const size_t stride = AlignedRowStride(dim);
        std::vector<float> query(static_cast<size_t>(num_items) * stride, 0.0f);
        std::vector<float> cand(static_cast<size_t>(num_cand) * stride, 0.0f);
        for (float& v : query) v = static_cast<float>(rng.Gaussian());
        for (float& v : cand) v = static_cast<float>(rng.Gaussian());
        std::vector<uint32_t> ids(num_items);
        for (uint32_t i = 0; i < num_items; ++i) ids[i] = i;
        rng.Shuffle(ids);
        ids.resize(num_cand);
        // A random subset of items, in the ascending order the loader
        // requires of candidate ids.
        std::sort(ids.begin(), ids.end());
        std::vector<uint8_t> has(num_items, 0);
        for (uint32_t id : ids) has[id] = 1;

        ServingArena::View v;
        v.num_items = num_items;
        v.dim = dim;
        v.num_cand = num_cand;
        v.mode = static_cast<uint32_t>(rng.UniformU64(2));  // loader: mode <= 1
        v.query_stride = stride;
        v.cand_stride = stride;
        v.query_rows = query.data();
        v.cand_rows = cand.data();
        v.cand_ids = ids.data();
        v.has_item = has.data();

        const std::string path = FreshPath("prop_art_embarena");
        if (!ServingArena::Save(path, v).ok()) return "save failed";
        std::string verdict;
        for (const bool use_mmap : {false, true}) {
          auto loaded = ServingArena::Load(path, use_mmap);
          if (!loaded.ok()) {
            verdict = "load failed: " + loaded.status().ToString();
            break;
          }
          const ServingArena::View& got = loaded->view();
          if (got.num_items != num_items || got.dim != dim ||
              got.num_cand != num_cand || got.mode != v.mode) {
            verdict = "header fields differ";
            break;
          }
          bool same = true;
          for (uint32_t i = 0; i < num_items && same; ++i) {
            same = std::memcmp(got.query_rows + i * got.query_stride,
                               query.data() + i * stride,
                               dim * sizeof(float)) == 0 &&
                   got.has_item[i] == has[i];
          }
          for (uint32_t i = 0; i < num_cand && same; ++i) {
            same = std::memcmp(got.cand_rows + i * got.cand_stride,
                               cand.data() + i * stride,
                               dim * sizeof(float)) == 0 &&
                   got.cand_ids[i] == ids[i];
          }
          if (!same) {
            verdict = std::string("content differs (mmap=") +
                      (use_mmap ? "1)" : "0)");
            break;
          }
        }
        std::remove(path.c_str());
        return verdict;
      });
  EXPECT_TRUE(r.ok) << r.message;
}

// ------------------------- corruption always typed -------------------------

/// The artifacts a corruption case can target, each with a fresh builder and
/// a loader. The loader must never crash and must return a non-OK Status on
/// any mutated file.
struct ArtifactTarget {
  const char* name;
  // Writes a pristine artifact of this kind to `path` (plus possibly
  // side files sharing the prefix); returns false on builder failure.
  bool (*build)(const std::string& path, Rng& rng);
  Status (*load)(const std::string& path);
};

const ArtifactTarget kTargets[] = {
    {"EMBMODEL",
     [](const std::string& path, Rng& rng) {
       EmbeddingModel m;
       if (!m.Init(static_cast<uint32_t>(rng.UniformInt(1, 20)),
                   static_cast<uint32_t>(rng.UniformInt(1, 24)), rng.Next())
                .ok()) {
         return false;
       }
       return m.Save(path).ok();
     },
     [](const std::string& path) {
       return EmbeddingModel::Load(path).status();
     }},
    {"CORPCACH",
     // The corpus cache is `<prefix>.corpus` beside `<prefix>.vocab`: the
     // target file is the .corpus artifact, the vocabulary a pristine side
     // file, and the loader reads the target back through Corpus::Load.
     [](const std::string& path, Rng& rng) {
       const World& world = FixtureWorld();
       std::vector<Session> sessions(1 + rng.UniformU64(30));
       for (Session& s : sessions) {
         s.user_type = static_cast<uint32_t>(
             rng.UniformU64(world.users.num_types()));
         s.items.resize(2 + rng.UniformU64(6));
         for (auto& item : s.items) {
           item = static_cast<uint32_t>(
               rng.UniformU64(world.catalog.num_items()));
         }
       }
       Corpus corpus;
       VectorSessionSource source(&sessions);
       if (!corpus.BuildFromSource(&source, world.token_space, world.catalog,
                                   {})
                .ok() ||
           !corpus.Save(path).ok()) {
         return false;
       }
       return std::rename((path + ".corpus").c_str(), path.c_str()) == 0;
     },
     [](const std::string& path) {
       std::error_code ec;
       std::filesystem::copy_file(
           path, path + ".corpus",
           std::filesystem::copy_options::overwrite_existing, ec);
       if (ec) return Status::IOError("copy failed: " + ec.message());
       const Status st =
           Corpus::Load(path, {}, FixtureWorld().token_space).status();
       std::remove((path + ".corpus").c_str());
       return st;
     }},
    {"QNTARENA",
     [](const std::string& path, Rng& rng) {
       const uint32_t n = static_cast<uint32_t>(rng.UniformInt(1, 20));
       const uint32_t dim = static_cast<uint32_t>(rng.UniformInt(1, 32));
       const size_t stride = AlignedRowStride(dim);
       std::vector<float> rows(static_cast<size_t>(n) * stride, 0.0f);
       for (float& v : rows) v = static_cast<float>(rng.Gaussian());
       Int8Arena arena;
       if (!arena.BuildFromRows(rows.data(), n, dim, stride).ok()) return false;
       return arena.Save(path).ok();
     },
     [](const std::string& path) {
       // Exercise both load paths; either failing with a typed error is the
       // contract, both must refuse corrupt bytes.
       const Status heap = Int8Arena::Load(path, false).status();
       const Status mapped = Int8Arena::Load(path, true).status();
       return heap.ok() ? mapped : heap;
     }},
    {"VOCABDIC",
     [](const std::string& path, Rng& rng) {
       const World& world = FixtureWorld();
       std::vector<uint64_t> counts(world.token_space.num_tokens(), 0);
       counts[0] = 5;
       for (int i = 0; i < 30; ++i) {
         counts[rng.UniformU64(counts.size())] = 1 + rng.UniformU64(20);
       }
       Vocabulary v;
       if (!v.BuildFromCounts(std::span<const uint64_t>(counts), 1,
                              world.token_space)
                .ok()) {
         return false;
       }
       return v.Save(path).ok();
     },
     [](const std::string& path) { return Vocabulary::Load(path).status(); }},
};

enum class CorruptKind : int {
  kFlipBytes = 0,
  kTruncate = 1,
  kAppend = 2,
  kZeroRange = 3,
  kHeaderFlip = 4,
};

struct CorruptCase {
  uint64_t seed = 0;      // drives artifact content
  int target = 0;         // index into kTargets
  CorruptKind kind = CorruptKind::kFlipBytes;
  uint64_t mutation_seed = 0;
};

std::string ShowCorrupt(const CorruptCase& c) {
  std::ostringstream os;
  os << "{target=" << kTargets[c.target].name
     << ", kind=" << static_cast<int>(c.kind) << ", seed=" << c.seed
     << ", mutation_seed=" << c.mutation_seed << "}";
  return os.str();
}

TEST(PropArtifact, GeneratedCorruptionAlwaysYieldsTypedErrors) {
  const auto gen = Gen<CorruptCase>([](Rng& rng) {
    CorruptCase c;
    c.seed = rng.Next();
    c.target = static_cast<int>(rng.UniformU64(std::size(kTargets)));
    c.kind = static_cast<CorruptKind>(rng.UniformU64(5));
    c.mutation_seed = rng.Next();
    return c;
  });
  const Result r = ForAllSeeded<CorruptCase>(
      "corruption_typed_errors", 150, gen,
      [](const CorruptCase& c) -> std::string {
        const ArtifactTarget& target = kTargets[c.target];
        const std::string path = FreshPath("prop_art_corrupt");
        Rng rng(c.seed);
        if (!target.build(path, rng)) return "builder failed";
        if (!target.load(path).ok()) {
          std::remove(path.c_str());
          return "pristine artifact failed to load";
        }
        const std::string pristine = ReadFileBytes(path);
        std::string bytes = pristine;
        Rng mut(c.mutation_seed);
        switch (c.kind) {
          case CorruptKind::kFlipBytes: {
            const int flips = static_cast<int>(mut.UniformInt(1, 8));
            for (int i = 0; i < flips; ++i) {
              const size_t off = mut.UniformU64(bytes.size());
              bytes[off] = static_cast<char>(
                  bytes[off] ^ static_cast<char>(1 + mut.UniformU64(255)));
            }
            break;
          }
          case CorruptKind::kTruncate:
            bytes.resize(mut.UniformU64(bytes.size()));
            break;
          case CorruptKind::kAppend: {
            const size_t extra = 1 + mut.UniformU64(64);
            for (size_t i = 0; i < extra; ++i) {
              bytes.push_back(static_cast<char>(mut.UniformU64(256)));
            }
            break;
          }
          case CorruptKind::kZeroRange: {
            const size_t start = mut.UniformU64(bytes.size());
            const size_t len =
                std::min(bytes.size() - start, 1 + mut.UniformU64(32));
            std::memset(bytes.data() + start, 0, len);
            break;
          }
          case CorruptKind::kHeaderFlip: {
            const size_t off =
                mut.UniformU64(std::min(bytes.size(), kArtifactHeaderBytes));
            bytes[off] = static_cast<char>(
                bytes[off] ^ static_cast<char>(1 + mut.UniformU64(255)));
            break;
          }
        }
        if (bytes == pristine) {
          // The mutation happened to be a no-op (e.g. zeroing zeros);
          // nothing to assert.
          std::remove(path.c_str());
          return "";
        }
        WriteFileBytes(path, bytes);
        const Status st = target.load(path);
        std::remove(path.c_str());
        if (st.ok()) {
          return std::string(target.name) +
                 " loaded successfully from corrupted bytes";
        }
        // Must be one of the typed artifact-validation codes.
        switch (st.code()) {
          case StatusCode::kDataLoss:
          case StatusCode::kCorruption:
          case StatusCode::kInvalidArgument:
          case StatusCode::kIOError:
          case StatusCode::kFailedPrecondition:
          case StatusCode::kOutOfRange:
            return "";
          default:
            return std::string(target.name) +
                   " returned an unexpected code: " + st.ToString();
        }
      },
      nullptr, ShowCorrupt);
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace sisg::prop
