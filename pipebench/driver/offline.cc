// The daily-publish half of the benchmark: `ingest` (session file -> corpus
// -> saved corpus cache) and `train_publish` (session file -> corpus -> SGNS
// -> engine -> int8 -> arena artifacts -> candidate table). Each round calls
// the layers' public functions in order; rounds repeat until the timed
// phase ends, after one discarded warm-up round.

#include <malloc.h>

#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/candidate_table.h"
#include "core/matching_engine.h"
#include "core/pipeline.h"
#include "core/sisg_model.h"
#include "corpus/corpus.h"
#include "datagen/catalog.h"
#include "datagen/dataset.h"
#include "datagen/session_stream.h"
#include "datagen/user_universe.h"
#include "eval/hitrate.h"
#include "sgns/trainer.h"

namespace pipebench {
namespace {

using sisg::Status;

/// The fixed shape of one offline workload. The world (catalog, user
/// types) is the same for every seed; the seed draws the sessions and the
/// trainer's randomness.
struct OfflineShape {
  uint32_t items;
  uint32_t train_sessions;
  uint32_t test_sessions;
};

// ingest: a large file over the default-size world, so parsing, enrichment
// and encoding dominate and nothing downstream runs.
constexpr OfflineShape kIngestShape{8000, 240000, 0};
// train_publish: a world large enough that the candidate table, quadratic
// in the items, and one SGNS epoch over the smaller file each take more
// than a third of the round.
constexpr OfflineShape kTrainShape{12000, 50000, 4000};

constexpr uint32_t kThreads = kThreadBudget;  // ingest, SGNS and table
constexpr uint32_t kDim = 64;
constexpr uint32_t kEpochs = 1;
constexpr uint32_t kNegatives = 5;
constexpr uint32_t kCandidatesK = 20;  // the production table's k
constexpr uint32_t kSampledItems = 64; // rows compared per output check
// One world build takes a few milliseconds, so set-up is the median of
// many builds spread over the whole run: kSetupRepeats before the first
// round and kSetupPerRound after each round, outside its timing. Builds
// packed into the first second read 5-8 ms between runs, as the host's
// speed in that second decided.
constexpr int kSetupRepeats = 11;
constexpr int kSetupPerRound = 3;
constexpr int kMinRounds = 3;
// HR@10 of SISG-F-U-D on this world, measured at design time, is ~0.33;
// a speed-up that costs a fifth of it fails the run.
constexpr double kHrFloor = 0.27;

const OfflineShape& ShapeOf(const std::string& workload) {
  return workload == "ingest" ? kIngestShape : kTrainShape;
}

sisg::CatalogConfig CatalogOf(const OfflineShape& shape) {
  sisg::CatalogConfig c;
  c.num_items = shape.items;
  return c;
}

sisg::SisgConfig TrainConfig(uint64_t seed) {
  sisg::SisgConfig config;
  config.variant = sisg::SisgVariant::kSisgFUD;
  config.sgns.dim = kDim;
  config.sgns.epochs = kEpochs;
  config.sgns.negatives = kNegatives;
  config.sgns.num_threads = kThreads;
  config.sgns.seed = seed;
  return config;
}

sisg::CorpusOptions CorpusOptionsOf(const sisg::SisgConfig& config) {
  sisg::CorpusOptions c;
  c.enrich.include_item_si = config.UseItemSi();
  c.enrich.include_user_type = config.UseUserTypes();
  c.min_count = config.min_count;
  c.num_threads = kThreads;
  return c;
}

/// The catalog, user universe and token space every round reads.
struct World {
  sisg::ItemCatalog catalog;
  sisg::UserUniverse users;
  sisg::TokenSpace token_space;
};

Status BuildWorld(const OfflineShape& shape, World* w) {
  SISG_RETURN_IF_ERROR(w->catalog.Build(CatalogOf(shape)));
  SISG_RETURN_IF_ERROR(
      w->users.Build(sisg::UserUniverseConfig{}, w->catalog.num_tops()));
  w->token_space = sisg::TokenSpace::Create(&w->catalog, &w->users);
  return Status::OK();
}

/// The per-layer counters of one round.
struct RoundCounts {
  sisg::IngestStats ingest;
  uint64_t tokens = 0;
  sisg::TrainStats train;
};

/// What one round leaves behind for its output check.
struct RoundOutput {
  RoundCounts counts;
  sisg::MatchingEngine engine;
  sisg::CandidateTable table;
};

Status RunIngestRound(const World& w, const std::string& sessions,
                      const std::string& prefix, const sisg::SisgConfig& cfg,
                      Tracer* tracer, RoundOutput* out) {
  Scope job(tracer, "job");
  sisg::Corpus corpus;
  {
    Scope s(tracer, "corpus.build");
    SISG_ASSIGN_OR_RETURN(sisg::SessionStream stream,
                          sisg::SessionStream::Open(w.users, sessions));
    SISG_RETURN_IF_ERROR(corpus.BuildFromSource(
        &stream, w.token_space, w.catalog, CorpusOptionsOf(cfg)));
    out->counts.ingest = stream.stats();
  }
  {
    Scope s(tracer, "corpus.save");
    SISG_RETURN_IF_ERROR(corpus.Save(prefix));
  }
  out->counts.tokens = corpus.num_tokens();
  return Status::OK();
}

Status RunTrainPublishRound(const World& w, const std::string& sessions,
                            const std::string& prefix,
                            const sisg::SisgConfig& cfg, Tracer* tracer,
                            RoundOutput* out) {
  Scope job(tracer, "job");
  sisg::Corpus corpus;
  {
    Scope s(tracer, "corpus.build");
    SISG_ASSIGN_OR_RETURN(sisg::SessionStream stream,
                          sisg::SessionStream::Open(w.users, sessions));
    SISG_RETURN_IF_ERROR(corpus.BuildFromSource(
        &stream, w.token_space, w.catalog, CorpusOptionsOf(cfg)));
    out->counts.ingest = stream.stats();
  }
  out->counts.tokens = corpus.num_tokens();
  sisg::EmbeddingModel emb;
  {
    Scope s(tracer, "sgns.train");
    const sisg::SgnsTrainer trainer(
        sisg::SisgPipeline(cfg).EffectiveSgnsOptions());
    SISG_RETURN_IF_ERROR(trainer.Train(corpus, &emb, &out->counts.train));
  }
  {
    Scope s(tracer, "core.engine_build");
    const sisg::SisgModel model(cfg, w.token_space, corpus.vocab(),
                                std::move(emb));
    SISG_ASSIGN_OR_RETURN(out->engine, model.BuildMatchingEngine());
  }
  {
    Scope s(tracer, "core.int8_build");
    SISG_RETURN_IF_ERROR(out->engine.EnableInt8());
  }
  {
    Scope s(tracer, "core.arena_save");
    SISG_RETURN_IF_ERROR(out->engine.SaveArena(prefix + ".arena"));
    SISG_RETURN_IF_ERROR(out->engine.SaveInt8(prefix + ".qarena"));
  }
  {
    Scope s(tracer, "core.candidates");
    SISG_RETURN_IF_ERROR(
        out->table.Build(out->engine, kCandidatesK, kThreads));
  }
  return Status::OK();
}

/// Median of each named quantity over the traced rounds.
class Ledger {
 public:
  void Add(const std::string& name, double v) { samples_[name].push_back(v); }
  double Get(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : Median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Folds the spans of the job rooted at `root` into per-call and per-layer
/// self times.
void FoldJob(const Tracer& tracer, size_t root, Ledger* ledger) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.SelfSeconds();
  std::map<std::string, double> layer_self;
  for (size_t i = root + 1; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    ledger->Add(s.name, dur);
    layer_self[s.name.substr(0, s.name.find('.'))] += self[i];
  }
  double sum = 0.0;
  for (const auto& [layer, v] : layer_self) {
    ledger->Add("layer." + layer, v);
    sum += v;
  }
  ledger->Add("layer.sum", sum);
  ledger->Add("residual", self[root]);
  ledger->Add("job", static_cast<double>(spans[root].end_ns -
                                         spans[root].start_ns) * 1e-9);
}

}  // namespace

int GenOffline(const Args& args) {
  const OfflineShape& shape = ShapeOf(args.workload);
  sisg::DatasetSpec spec;
  spec.catalog = CatalogOf(shape);
  spec.num_train_sessions = shape.train_sessions;
  spec.num_test_sessions = shape.test_sessions;
  spec.model.seed = args.seed;
  auto ds = sisg::SyntheticDataset::Generate(spec);
  if (Fail(ds.status(), "generate")) return 1;
  if (Fail(sisg::WriteSessionsText(ds->train_sessions(), ds->users(),
                                   args.dir + "/sessions.txt"),
           "write sessions")) {
    return 1;
  }
  if (shape.test_sessions > 0 &&
      Fail(sisg::WriteSessionsText(ds->test_sessions(), ds->users(),
                                   args.dir + "/test.txt"),
           "write test sessions")) {
    return 1;
  }
  return 0;
}

int RunOffline(const Args& args) {
  const double calib = PrintHostTag();
  const bool ingest = args.workload == "ingest";
  const OfflineShape& shape = ShapeOf(args.workload);
  const sisg::SisgConfig cfg = TrainConfig(args.seed);
  const std::string sessions = args.dir + "/sessions.txt";
  const std::string prefix = args.dir + "/out";

  // Set-up: the world every round reads.
  std::vector<double> setups;
  const auto time_setup = [&](World* w) {
    const double t0 = NowSeconds();
    const Status st = BuildWorld(shape, w);
    setups.push_back(NowSeconds() - t0);
    return st;
  };
  World world;
  for (int i = 0; i < kSetupRepeats; ++i) {
    World w;
    if (Fail(time_setup(&w), "world")) return 1;
  }
  if (Fail(time_setup(&world), "world")) return 1;

  const auto round = [&](Tracer* tracer, RoundOutput* out) {
    return ingest ? RunIngestRound(world, sessions, prefix, cfg, tracer, out)
                  : RunTrainPublishRound(world, sessions, prefix, cfg, tracer,
                                         out);
  };

  Tracer off(false);
  {
    RoundOutput warm;
    if (Fail(round(&off, &warm), "warm-up round")) return 1;
  }
  // Every timed ingest round must save exactly the warm-up round's bytes.
  const uint64_t corpus_hash = ingest ? HashFile(prefix + ".corpus") : 0;
  const uint64_t vocab_hash = ingest ? HashFile(prefix + ".vocab") : 0;

  Tracer tracer(args.trace);
  Ledger ledger;
  Outcome outcome;
  std::vector<double> jobs;           // untraced rounds
  std::vector<double> traced_jobs;    // traced rounds
  std::vector<double> load_heap, load_mmap, parse;
  std::vector<double> round_rss;  // peak resident set of each round, MB
  RoundCounts last;
  const double t_start = NowSeconds();
  for (int r = 0; NowSeconds() - t_start < args.seconds || r < kMinRounds;
       ++r) {
    // A traced run alternates untraced and traced rounds so the tracing
    // overhead is measured within one process.
    const bool traced = args.trace && r % 2 == 1;
    RoundOutput out;
    const size_t root = tracer.spans().size();
    // Each round starts with the heap earlier rounds freed handed back to
    // the kernel, so its high-water mark is what the round itself needs.
    // Without the trim, the heap the first rounds left fragmented set a
    // plateau for the later ones that spread 13-18% between runs.
    malloc_trim(0);
    const bool rss_reset = ResetPeakRss();
    const double t0 = NowSeconds();
    const Status st = round(traced ? &tracer : &off, &out);
    const double job_s = NowSeconds() - t0;
    if (rss_reset) round_rss.push_back(PeakRssMb(0));
    if (!st.ok()) {
      outcome.Fail("round " + std::to_string(r) + ": " + st.ToString());
      continue;
    }
    (traced ? traced_jobs : jobs).push_back(job_s);
    if (traced) FoldJob(tracer, root, &ledger);

    // Output checks, outside the timed job.
    if (ingest) {
      const uint64_t ch = HashFile(prefix + ".corpus");
      const uint64_t vh = HashFile(prefix + ".vocab");
      if (ch == 0 || ch != corpus_hash || vh != vocab_hash) {
        outcome.Fail("round " + std::to_string(r) +
                     " saved corpus bytes differ from the warm-up's");
      } else {
        outcome.Ok();
      }
      if (traced) {
        // Parse alone: drain the stream without building anything.
        const double p0 = NowSeconds();
        auto stream = sisg::SessionStream::Open(world.users, sessions);
        std::vector<sisg::Session> chunk;
        while (stream.ok() && stream->NextChunk(&chunk).ok() &&
               !chunk.empty()) {
        }
        parse.push_back(NowSeconds() - p0);
      }
    } else {
      std::string why;
      sisg::MatchingEngine heap, mapped;
      double t = NowSeconds();
      if (Fail(LoadServingEngine(prefix, false, &heap), "heap load")) {
        why = "the saved arena does not load into the heap";
      }
      load_heap.push_back(NowSeconds() - t);
      t = NowSeconds();
      if (Fail(LoadServingEngine(prefix, true, &mapped), "mmap load")) {
        why = "the saved arena does not load through mmap";
      }
      load_mmap.push_back(NowSeconds() - t);
      sisg::Rng rng(args.seed * 1000003 + r);
      for (uint32_t i = 0; why.empty() && i < kSampledItems; ++i) {
        const auto item =
            static_cast<uint32_t>(rng.UniformU64(out.engine.num_items()));
        if (!SameAnswers(out.table.Get(item),
                         out.engine.Query(item, kCandidatesK))) {
          why = "candidate row of item " + std::to_string(item) +
                " differs from MatchingEngine::Query";
        } else if (!SameAnswers(heap.Query(item, kCandidatesK),
                                mapped.Query(item, kCandidatesK))) {
          why = "heap and mmap arenas answer item " + std::to_string(item) +
                " differently";
        }
      }
      if (why.empty()) {
        outcome.Ok();
      } else {
        outcome.Fail(why);
      }
    }
    // Only counters outlive the round, so every round starts from the same
    // memory footprint.
    last = out.counts;
    for (int i = 0; i < kSetupPerRound; ++i) {
      World w;
      if (!time_setup(&w).ok()) {
        outcome.Fail("world build after round " + std::to_string(r));
      }
    }
  }

  double hr10 = 0.0;
  if (!ingest) {
    // Quality guard, after timing: held-out next-click HR@10 (Table III)
    // of the last published arena.
    auto test = sisg::ReadSessionsText(world.users, args.dir + "/test.txt");
    sisg::MatchingEngine engine;
    if (!Fail(test.status(), "read test sessions") &&
        !Fail(LoadServingEngine(prefix, false, &engine), "published arena")) {
      const auto hr = sisg::EvaluateHitRate(
          *test,
          [&](uint32_t item, uint32_t k) { return engine.Query(item, k); },
          {10});
      hr10 = hr.hit_rate[0];
    }
    if (hr10 < kHrFloor) {
      outcome.Fail("HR@10 " + std::to_string(hr10) + " is below the floor " +
                   std::to_string(kHrFloor));
    } else {
      outcome.Ok();
    }
  }

  const std::vector<double>& timed = args.trace ? traced_jobs : jobs;
  std::cout << "rounds: " << jobs.size() << " untraced, " << traced_jobs.size()
            << " traced; job_s median " << Median(jobs) << "\n";
  Report report;
  if (!args.trace) {
    report.Set("setup_s", Median(setups), "s");
    report.Set("lat_p50_ms", Median(jobs) * 1e3, "ms");
    // The job's own peak: the median over rounds of each round's high-water
    // mark, which the output checks' arena loads after it do not touch.
    // Where the kernel cannot reset the mark, the run's peak.
    report.Set("peak_rss_mb",
               round_rss.empty() ? PeakRssMb(0) : Median(round_rss), "MB");
    report.Set("ok_ratio", outcome.ok_ratio(), "ratio");
  } else {
    const double job = Median(timed);
    const double untraced = Median(jobs);
    const std::string what[] = {"corpus", "sgns", "core"};
    std::cout << "trace: per-layer self time, median over " << timed.size()
              << " traced rounds\n";
    for (const std::string& layer : what) {
      const double v = ledger.Get("layer." + layer);
      std::cout << "  " << std::left << std::setw(10) << layer << std::right
                << std::setw(10) << std::fixed << std::setprecision(4) << v
                << " s  " << std::setw(6) << std::setprecision(1)
                << (job > 0 ? 100.0 * v / job : 0.0) << "%\n";
    }
    std::cout << "  " << std::left << std::setw(10) << "residual" << std::right
              << std::setw(10) << std::setprecision(4)
              << ledger.Get("residual") << " s\n"
              << "  layer sum " << ledger.Get("layer.sum") << " s vs job_s "
              << job << " s ("
              << std::setprecision(1)
              << (job > 0 ? 100.0 * ledger.Get("layer.sum") / job : 0.0)
              << "%)\n"
              << "  tracing overhead " << std::setprecision(2)
              << (job - untraced) * 1e3 << " ms per job (traced " << job
              << " s, untraced " << untraced << " s)\n"
              << std::defaultfloat;
    const double build = ledger.Get("corpus.build");
    const double train = ledger.Get("sgns.train");
    const double cands = ledger.Get("core.candidates");
    report.Set("corpus.parse_s", Median(parse), "s");
    report.Set("corpus.build_s", build, "s");
    report.Set("corpus.save_s", ledger.Get("corpus.save"), "s");
    report.Set("corpus.sessions", static_cast<double>(last.ingest.sessions),
               "count");
    report.Set("corpus.tokens", static_cast<double>(last.tokens), "count");
    report.Set("corpus.tokens_per_s",
               build > 0 ? static_cast<double>(last.tokens) / build : 0.0,
               "1/s");
    report.Set("corpus.lines_skipped",
               static_cast<double>(last.ingest.lines_skipped), "count");
    report.Set("corpus.share", job > 0 ? ledger.Get("layer.corpus") / job : 0,
               "ratio");
    report.Set("sgns.train_s", train, "s");
    report.Set("sgns.pairs", static_cast<double>(last.train.pairs_trained),
               "count");
    report.Set("sgns.pairs_per_s",
               train > 0 ? static_cast<double>(last.train.pairs_trained) / train
                         : 0.0,
               "1/s");
    report.Set("sgns.kept_ratio",
               last.train.tokens_seen > 0
                   ? static_cast<double>(last.train.tokens_kept) /
                         static_cast<double>(last.train.tokens_seen)
                   : 0.0,
               "ratio");
    report.Set("sgns.share", job > 0 ? ledger.Get("layer.sgns") / job : 0,
               "ratio");
    report.Set("sgns.hr_at_10", hr10, "ratio");
    report.Set("core.engine_build_s", ledger.Get("core.engine_build"), "s");
    report.Set("core.int8_build_s", ledger.Get("core.int8_build"), "s");
    report.Set("core.arena_save_s", ledger.Get("core.arena_save"), "s");
    report.Set("core.arena_load_heap_s", Median(load_heap), "s");
    report.Set("core.arena_load_mmap_s", Median(load_mmap), "s");
    report.Set("core.candidates_s", cands, "s");
    report.Set("core.candidates_per_s",
               cands > 0 ? static_cast<double>(shape.items) / cands : 0.0,
               "1/s");
    report.Set("core.candidates_share", job > 0 ? cands / job : 0, "ratio");
    report.Set("trace.job_s", job, "s");
    report.Set("trace.untraced_job_s", untraced, "s");
    report.Set("trace.overhead_ms", (job - untraced) * 1e3, "ms");
    report.Set("trace.layer_sum_share",
               job > 0 ? ledger.Get("layer.sum") / job : 0.0, "ratio");
    report.Set("trace.residual_s", ledger.Get("residual"), "s");
    report.Set("host.calib_ms", calib, "ms");
  }
  if (tracer.enabled() &&
      !tracer.WriteJsonLines(args.dir + "/trace.jsonl")) {
    std::cerr << "cannot write " << args.dir << "/trace.jsonl\n";
  }
  const bool correct = outcome.correct();
  report.Print(correct, outcome.attempted, outcome.failed);
  return correct ? 0 : 1;
}

}  // namespace pipebench
