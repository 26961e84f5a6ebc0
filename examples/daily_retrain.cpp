// The production cadence (Section I: "all embeddings computed on a daily
// basis"): each day brings new sessions; the model is retrained with a warm
// start from yesterday's vectors so a short daily run suffices. Compares
// warm-started daily runs against cold restarts on HR@20 and training time.

#include <iostream>

#include "core/pipeline.h"
#include "core/sisg_model.h"
#include "corpus/corpus.h"
#include "datagen/dataset.h"
#include "eval/hitrate.h"
#include "obs/table_printer.h"
#include "sgns/trainer.h"
#include "sgns/warm_start.h"

using namespace sisg;

namespace {

double Hr20(const SisgModel& model, const std::vector<Session>& test) {
  auto engine = model.BuildMatchingEngine();
  if (!engine.ok()) return 0.0;
  return EvaluateHitRate(
             test,
             [&](uint32_t item, uint32_t k) { return engine->Query(item, k); },
             {20})
      .hit_rate[0];
}

}  // namespace

int main() {
  DatasetSpec spec;
  spec.name = "DailySyn";
  spec.catalog.num_items = 4000;
  spec.catalog.num_leaf_categories = 16;
  spec.users.num_user_types = 300;
  spec.num_train_sessions = 12000;  // split into 4 "days" below
  spec.num_test_sessions = 800;
  auto dataset = SyntheticDataset::Generate(spec);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  TokenSpace ts = TokenSpace::Create(&dataset->catalog(), &dataset->users());

  // Day t trains on all sessions up to day t (a growing log window).
  const uint32_t kDays = 4;
  const size_t per_day = dataset->train_sessions().size() / kDays;

  SgnsOptions daily;
  daily.dim = 48;
  daily.negatives = 8;
  daily.epochs = 4;  // the short daily budget
  SgnsOptions cold_budget = daily;

  TablePrinter t({"day", "sessions", "warm HR@20", "cold HR@20",
                  "warm train s", "cold train s"});
  Vocabulary prev_vocab;
  EmbeddingModel prev_model;
  bool have_prev = false;

  for (uint32_t day = 1; day <= kDays; ++day) {
    std::vector<Session> window(dataset->train_sessions().begin(),
                                dataset->train_sessions().begin() +
                                    static_cast<long>(day * per_day));
    Corpus corpus;
    VectorSessionSource sessions(&window);
    if (auto st = corpus.BuildFromSource(&sessions, ts, dataset->catalog(),
                                         CorpusOptions{});
        !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }

    // Warm daily run.
    SgnsOptions warm_opts = daily;
    EmbeddingModel warm;
    if (auto st = warm.Init(corpus.vocab().size(), daily.dim, 1); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    if (have_prev) {
      if (auto st = WarmStartFrom(prev_vocab, prev_model, corpus.vocab(), &warm);
          !st.ok()) {
        std::cerr << st.ToString() << "\n";
        return 1;
      }
      warm_opts.warm_start = true;
    }
    TrainStats warm_stats;
    if (auto st = SgnsTrainer(warm_opts).Train(corpus, &warm, &warm_stats);
        !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }

    // Cold restart with the same daily budget.
    EmbeddingModel cold;
    TrainStats cold_stats;
    if (auto st = SgnsTrainer(cold_budget).Train(corpus, &cold, &cold_stats);
        !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }

    // Keep yesterday's state for the next warm start before handing the
    // vectors to the model wrapper.
    prev_vocab = corpus.vocab();
    prev_model = warm;
    have_prev = true;

    SisgConfig cfg;
    cfg.variant = SisgVariant::kSisgFU;
    const SisgModel warm_model(cfg, ts, corpus.vocab(), std::move(warm));
    const SisgModel cold_model(cfg, ts, corpus.vocab(), std::move(cold));
    t.AddRow({"day " + std::to_string(day), std::to_string(window.size()),
              TablePrinter::Fixed(Hr20(warm_model, dataset->test_sessions()), 4),
              TablePrinter::Fixed(Hr20(cold_model, dataset->test_sessions()), 4),
              TablePrinter::Fixed(warm_stats.seconds, 1),
              TablePrinter::Fixed(cold_stats.seconds, 1)});
  }
  t.Print(std::cout);
  std::cout << "Warm starts accumulate training across days: the same short "
               "daily budget yields a steadily better model.\n";
  return 0;
}
