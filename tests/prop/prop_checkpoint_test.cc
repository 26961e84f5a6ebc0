// Checkpoint/resume property suite: over generated tiny corpora, snapshot
// cadences and crash points, a run that crashes (possibly several times)
// and resumes from its newest durable checkpoint ends bit-identical to the
// uninterrupted run with the same cadence: model bytes, pairs_trained,
// tokens_seen, tokens_kept and lr_end. The reference model is that
// uninterrupted run. Two trainers are checked: the single-thread
// SgnsTrainer (crashes via CheckpointConfig::crash_after_saves) and the
// fault-free DistributedTrainer (crash_after_saves or
// FaultPlan::crash_at_pair). A crash with no checkpoint committed yet
// restarts from scratch, which must equally reproduce the reference.

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "corpus/corpus.h"
#include "datagen/catalog.h"
#include "datagen/session_generator.h"
#include "datagen/user_universe.h"
#include "dist/distributed_trainer.h"
#include "gtest/gtest.h"
#include "prop.h"
#include "sgns/checkpoint.h"
#include "sgns/embedding_model.h"
#include "sgns/trainer.h"

namespace sisg::prop {
namespace {

/// Holds the per-save INFO lines back for the scope; a run saves dozens of
/// checkpoints.
class QuietLogs {
 public:
  QuietLogs() : saved_(MinLogLevel()) { SetMinLogLevel(LogLevel::kError); }
  ~QuietLogs() { SetMinLogLevel(saved_); }

 private:
  LogLevel saved_;
};

struct World {
  ItemCatalog catalog;
  UserUniverse users;
  TokenSpace token_space;
};

std::shared_ptr<const World> MakeWorld(Rng& rng) {
  auto w = std::make_shared<World>();
  CatalogConfig cat;
  cat.num_items = static_cast<uint32_t>(rng.UniformInt(20, 80));
  cat.num_leaf_categories = static_cast<uint32_t>(rng.UniformInt(2, 5));
  cat.leaves_per_top = 2;
  cat.num_shops = static_cast<uint32_t>(rng.UniformInt(6, 15));
  cat.num_brands = static_cast<uint32_t>(rng.UniformInt(8, 15));
  cat.num_cities = 4;
  cat.num_styles = 3;
  cat.num_materials = 3;
  cat.brands_per_leaf = 3;
  cat.shops_per_leaf = 3;
  cat.seed = rng.Next();
  if (!w->catalog.Build(cat).ok()) return nullptr;
  UserUniverseConfig uc;
  uc.num_user_types = static_cast<uint32_t>(rng.UniformInt(3, 12));
  uc.num_preferred_tops = 1;
  uc.seed = rng.Next();
  if (!w->users.Build(uc, w->catalog.num_tops()).ok()) return nullptr;
  w->token_space = TokenSpace::Create(&w->catalog, &w->users);
  return w;
}

/// One incarnation's crash point. `at_pair_fraction` > 0 sets
/// FaultPlan::crash_at_pair to that fraction of the reference run's pairs
/// (distributed trainer only).
struct Crash {
  uint32_t after_saves = 0;
  double at_pair_fraction = 0.0;
};

struct ResumeCase {
  std::shared_ptr<const World> world;
  std::vector<Session> sessions;
  bool item_si = false;
  bool user_type = false;
  SgnsOptions sgns;
  uint32_t snapshots = 1;  // target snapshots per run: the cadence
  uint32_t jitter = 0;     // added to the cadence, so it rarely divides
  std::vector<Crash> crashes;
  // Distributed trainer only.
  uint32_t workers = 2;
  bool use_atns = true;
  uint64_t dist_seed = 0;
};

Gen<ResumeCase> ResumeGen(bool distributed) {
  return Gen<ResumeCase>([distributed](Rng& rng) {
    ResumeCase c;
    c.world = MakeWorld(rng);
    if (!c.world) return c;  // property reports the build failure
    const uint32_t num_sessions =
        static_cast<uint32_t>(rng.UniformInt(10, 60));
    for (uint32_t i = 0; i < num_sessions; ++i) {
      Session s;
      s.user_type =
          static_cast<uint32_t>(rng.UniformU64(c.world->users.num_types()));
      const int len = static_cast<int>(rng.UniformInt(2, 8));
      for (int j = 0; j < len; ++j) {
        s.items.push_back(static_cast<uint32_t>(
            rng.UniformU64(c.world->catalog.num_items())));
      }
      c.sessions.push_back(std::move(s));
    }
    c.item_si = rng.Bernoulli(0.5);
    c.user_type = rng.Bernoulli(0.5);
    c.sgns.dim = static_cast<uint32_t>(rng.UniformInt(2, 16));
    c.sgns.epochs = static_cast<uint32_t>(rng.UniformInt(1, 3));
    c.sgns.negatives = static_cast<uint32_t>(rng.UniformInt(1, 5));
    c.sgns.window.window = static_cast<uint32_t>(rng.UniformInt(1, 4));
    c.sgns.window.directional = rng.Bernoulli(0.5);
    c.sgns.seed = rng.Next();
    // Tiny corpora make every token frequent; half the cases keep far more
    // of them so runs have enough pairs between snapshots.
    if (rng.Bernoulli(0.5)) {
      c.sgns.subsample.item_threshold = 0.05;
      c.sgns.subsample.si_threshold = 0.01;
    }
    c.snapshots = static_cast<uint32_t>(rng.UniformInt(2, 6));
    c.jitter = static_cast<uint32_t>(rng.UniformInt(0, 3));
    const int num_crashes = static_cast<int>(rng.UniformInt(1, 3));
    double fraction = 0.0;
    for (int i = 0; i < num_crashes; ++i) {
      Crash crash;
      if (distributed && rng.Bernoulli(0.5)) {
        // Increasing fractions: pair counts carry over a resume, so a later
        // incarnation's crash point lies ahead of the earlier one's.
        fraction += (1.0 - fraction) * rng.UniformDouble();
        crash.at_pair_fraction = std::max(fraction, 1e-9);
      } else {
        crash.after_saves = static_cast<uint32_t>(rng.UniformInt(1, 3));
      }
      c.crashes.push_back(crash);
    }
    c.workers = static_cast<uint32_t>(rng.UniformInt(2, 4));
    c.use_atns = rng.Bernoulli(0.5);
    c.dist_seed = rng.Next();
    return c;
  });
}

std::string ShowCase(const ResumeCase& c) {
  if (!c.world) return "{world build failed}";
  std::ostringstream os;
  os << "{items=" << c.world->catalog.num_items()
     << ", sessions=" << c.sessions.size() << ", si=" << c.item_si
     << ", ut=" << c.user_type << ", dim=" << c.sgns.dim
     << ", epochs=" << c.sgns.epochs << ", negatives=" << c.sgns.negatives
     << ", window=" << c.sgns.window.window
     << ", directional=" << c.sgns.window.directional
     << ", item_subsample=" << c.sgns.subsample.item_threshold
     << ", snapshots=" << c.snapshots << ", jitter=" << c.jitter
     << ", workers=" << c.workers << ", atns=" << c.use_atns << ", crashes=[";
  for (const Crash& crash : c.crashes) {
    if (crash.at_pair_fraction > 0.0) {
      os << " pair@" << crash.at_pair_fraction;
    } else {
      os << " saves@" << crash.after_saves;
    }
  }
  os << " ]}";
  return os.str();
}

std::string FreshDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/" + name + "." + std::to_string(getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

/// One incarnation: trains `model` under `cfg`, crashing at pair
/// `crash_at_pair` when non-zero.
using TrainFn = std::function<Status(EmbeddingModel* model, TrainStats* stats,
                                     const CheckpointConfig& cfg,
                                     uint64_t crash_at_pair)>;

/// Runs incarnations over one checkpoint directory until one finishes:
/// incarnation i < crashes.size() is set up to crash at crashes[i], and
/// every incarnation after the first resumes from the newest durable
/// checkpoint (or starts fresh when none was committed). Returns "" with
/// the finished run's model and stats, or a violation.
std::string RunToCompletion(const std::string& dir, uint64_t interval,
                            const std::vector<Crash>& crashes,
                            uint64_t ref_pairs, const TrainFn& train,
                            EmbeddingModel* model, TrainStats* stats) {
  for (size_t i = 0;; ++i) {
    Checkpointer::Options copts;
    copts.dir = dir;
    auto ck = Checkpointer::Create(copts);
    if (!ck.ok()) return "checkpointer: " + ck.status().ToString();
    CheckpointConfig cfg;
    cfg.checkpointer = &*ck;
    cfg.interval_slots = interval;
    TrainProgress progress;
    *model = EmbeddingModel();
    if (i > 0) {
      const Status loaded = ck->LoadLatest(model, &progress);
      if (loaded.ok()) {
        cfg.resume = &progress;
      } else if (loaded.code() != StatusCode::kNotFound) {
        return "load after crash " + std::to_string(i) + ": " +
               loaded.ToString();
      }
    }
    uint64_t crash_at_pair = 0;
    if (i < crashes.size()) {
      cfg.crash_after_saves = crashes[i].after_saves;
      if (crashes[i].at_pair_fraction > 0.0) {
        crash_at_pair =
            1 + static_cast<uint64_t>(crashes[i].at_pair_fraction *
                                      static_cast<double>(ref_pairs));
      }
    }
    *stats = TrainStats();
    const Status st = train(model, stats, cfg, crash_at_pair);
    // A crash point the run never reached leaves a finished run.
    if (st.ok()) return "";
    if (i >= crashes.size() || st.code() != StatusCode::kAborted) {
      return "incarnation " + std::to_string(i) + " failed: " + st.ToString();
    }
  }
}

uint32_t FloatBits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

std::string CompareRuns(const EmbeddingModel& ref, const TrainStats& ref_stats,
                        const EmbeddingModel& got,
                        const TrainStats& got_stats) {
  std::ostringstream os;
  if (got_stats.pairs_trained != ref_stats.pairs_trained) {
    os << "pairs_trained " << got_stats.pairs_trained << " vs "
       << ref_stats.pairs_trained;
  } else if (got_stats.tokens_seen != ref_stats.tokens_seen) {
    os << "tokens_seen " << got_stats.tokens_seen << " vs "
       << ref_stats.tokens_seen;
  } else if (got_stats.tokens_kept != ref_stats.tokens_kept) {
    os << "tokens_kept " << got_stats.tokens_kept << " vs "
       << ref_stats.tokens_kept;
  } else if (FloatBits(got_stats.lr_end) != FloatBits(ref_stats.lr_end)) {
    os << "lr_end " << got_stats.lr_end << " vs " << ref_stats.lr_end;
  } else if (got.rows() != ref.rows() || got.dim() != ref.dim()) {
    os << "model shape " << got.rows() << "x" << got.dim() << " vs "
       << ref.rows() << "x" << ref.dim();
  } else {
    const size_t bytes = ref.dim() * sizeof(float);
    for (uint32_t r = 0; r < ref.rows(); ++r) {
      if (std::memcmp(got.Input(r), ref.Input(r), bytes) != 0) {
        os << "input row " << r << " differs";
        break;
      }
      if (std::memcmp(got.Output(r), ref.Output(r), bytes) != 0) {
        os << "output row " << r << " differs";
        break;
      }
    }
  }
  return os.str();
}

/// Builds the case's corpus, runs the uninterrupted reference and the
/// crash/resume chain with `make_train`'s trainer, and compares them.
std::string CheckResumeIsBitIdentical(
    const ResumeCase& c, const std::string& name,
    const std::function<TrainFn(const Corpus&)>& make_train) {
  if (!c.world) return "world build failed";
  QuietLogs quiet;
  CorpusOptions copts;
  copts.enrich.include_item_si = c.item_si;
  copts.enrich.include_user_type = c.user_type;
  Corpus corpus;
  VectorSessionSource source(&c.sessions);
  const Status built = corpus.BuildFromSource(&source, c.world->token_space,
                                              c.world->catalog, copts);
  if (!built.ok()) return "corpus build: " + built.ToString();
  const uint64_t total_slots =
      static_cast<uint64_t>(c.sgns.epochs) * corpus.num_sequences();
  const uint64_t interval =
      std::max<uint64_t>(1, total_slots / c.snapshots) + c.jitter;
  const TrainFn train = make_train(corpus);

  const std::string ref_dir = FreshDir(name + "_ref");
  EmbeddingModel ref;
  TrainStats ref_stats;
  std::string why =
      RunToCompletion(ref_dir, interval, {}, 0, train, &ref, &ref_stats);
  std::filesystem::remove_all(ref_dir);
  if (!why.empty()) return "reference run: " + why;

  const std::string dir = FreshDir(name + "_crash");
  EmbeddingModel got;
  TrainStats got_stats;
  why = RunToCompletion(dir, interval, c.crashes, ref_stats.pairs_trained,
                        train, &got, &got_stats);
  std::filesystem::remove_all(dir);
  if (!why.empty()) return why;
  why = CompareRuns(ref, ref_stats, got, got_stats);
  return why.empty() ? "" : "resumed run differs (interval " +
                                std::to_string(interval) + "): " + why;
}

TEST(CheckpointResumeProperty, SingleThreadSgnsResumeIsBitIdentical) {
  const Result r = ForAllSeeded<ResumeCase>(
      "sgns_resume_bit_identical", 100, ResumeGen(/*distributed=*/false),
      [](const ResumeCase& c) -> std::string {
        return CheckResumeIsBitIdentical(
            c, "prop_ckpt_sgns", [&c](const Corpus& corpus) -> TrainFn {
              return [&c, &corpus](EmbeddingModel* model, TrainStats* stats,
                                   const CheckpointConfig& cfg, uint64_t) {
                SgnsOptions opts = c.sgns;
                opts.num_threads = 1;
                return SgnsTrainer(opts).Train(corpus, model, stats, &cfg);
              };
            });
      },
      NoShrink<ResumeCase>(), ShowCase);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(CheckpointResumeProperty, FaultFreeDistributedResumeIsBitIdentical) {
  const Result r = ForAllSeeded<ResumeCase>(
      "dist_resume_bit_identical", 100, ResumeGen(/*distributed=*/true),
      [](const ResumeCase& c) -> std::string {
        if (!c.world) return "world build failed";
        std::vector<uint32_t> item_worker(c.world->catalog.num_items());
        Rng assign(c.dist_seed);
        for (uint32_t& w : item_worker) {
          w = static_cast<uint32_t>(assign.UniformU64(c.workers));
        }
        return CheckResumeIsBitIdentical(
            c, "prop_ckpt_dist",
            [&c, &item_worker](const Corpus& corpus) -> TrainFn {
              return [&c, &item_worker, &corpus](
                         EmbeddingModel* model, TrainStats* stats,
                         const CheckpointConfig& cfg, uint64_t crash_at_pair) {
                DistOptions opts;
                opts.sgns = c.sgns;
                opts.num_workers = c.workers;
                opts.use_atns = c.use_atns;
                opts.seed = c.dist_seed;
                opts.fault.crash_at_pair = crash_at_pair;
                DistTrainResult result;
                const Status st = DistributedTrainer(opts).Train(
                    corpus, c.world->token_space, item_worker, model, &result,
                    &cfg);
                *stats = result.train;
                return st;
              };
            });
      },
      NoShrink<ResumeCase>(), ShowCase);
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace sisg::prop
