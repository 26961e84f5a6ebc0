// The full matching stage as deployed (Section I): record sessions, train
// SISG daily, build the candidate-generation engine, and serve next-item
// candidates — evaluated against ground truth with HR@K and compared with
// the CF production baseline. Also demonstrates session text I/O (the
// training-data interchange format).

#include <cstdio>
#include <iostream>

#include "cf/item_cf.h"
#include "core/pipeline.h"
#include "datagen/dataset.h"
#include "eval/hitrate.h"
#include "obs/table_printer.h"

using namespace sisg;

int main() {
  // ---- 1. "Log collection": a week of synthetic click sessions ----
  DatasetSpec spec;
  spec.name = "MatchingSyn";
  spec.catalog.num_items = 8000;
  spec.catalog.num_leaf_categories = 32;
  spec.users.num_user_types = 500;
  spec.num_train_sessions = 16000;
  spec.num_test_sessions = 1000;
  auto dataset = SyntheticDataset::Generate(spec);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }

  // Sessions round-trip through the text interchange format.
  const std::string log_path = "/tmp/sisg_sessions.txt";
  if (auto st =
          WriteSessionsText(dataset->train_sessions(), dataset->users(), log_path);
      !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  auto sessions = ReadSessionsText(dataset->users(), log_path);
  if (!sessions.ok()) {
    std::cerr << sessions.status().ToString() << "\n";
    return 1;
  }
  std::cout << "Parsed " << sessions->size() << " sessions from " << log_path
            << "\n";
  std::remove(log_path.c_str());

  // ---- 2. Daily training: SISG-F-U-D on the enriched sequences ----
  SisgConfig config;
  config.variant = SisgVariant::kSisgFUD;
  config.sgns.dim = 48;
  config.sgns.epochs = 15;
  config.sgns.negatives = 8;
  SisgPipeline pipeline(config);
  PipelineReport report;
  auto model =
      pipeline.Train(*sessions, dataset->catalog(), dataset->users(), &report);
  if (!model.ok()) {
    std::cerr << model.status().ToString() << "\n";
    return 1;
  }
  std::cout << "Trained " << report.vocab_size << " embeddings in "
            << report.train.seconds << "s\n";

  // ---- 3. Candidate generation + evaluation ----
  auto engine = model->BuildMatchingEngine();
  if (!engine.ok()) {
    std::cerr << engine.status().ToString() << "\n";
    return 1;
  }
  ItemCf cf;
  if (auto st = cf.Build(*sessions, dataset->catalog().num_items(),
                         ItemCfOptions{});
      !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  const std::vector<uint32_t> ks = {1, 10, 20, 100};
  const auto sisg_hr = EvaluateHitRate(
      dataset->test_sessions(),
      [&](uint32_t item, uint32_t k) { return engine->Query(item, k); }, ks);
  const auto cf_hr = EvaluateHitRate(
      dataset->test_sessions(),
      [&](uint32_t item, uint32_t k) { return cf.Query(item, k); }, ks);

  TablePrinter t({"method", "HR@1", "HR@10", "HR@20", "HR@100", "MRR"});
  auto add = [&](const char* name, const HitRateResult& r) {
    t.AddRow({name, TablePrinter::Fixed(r.hit_rate[0], 4),
              TablePrinter::Fixed(r.hit_rate[1], 4),
              TablePrinter::Fixed(r.hit_rate[2], 4),
              TablePrinter::Fixed(r.hit_rate[3], 4),
              TablePrinter::Fixed(r.mrr, 4)});
  };
  add("SISG-F-U-D", sisg_hr);
  add("item CF", cf_hr);
  std::cout << "\nNext-item recommendation over "
            << dataset->test_sessions().size() << " held-out sessions:\n";
  t.Print(std::cout);
  std::cout << "(On a small dense corpus CF's bigram memorization is strong; "
               "SISG's edge appears at catalog scale / sparse coverage — see "
               "bench_fig3_online_ctr.)\n";

  // ---- 4. Serve a query ----
  const uint32_t query = dataset->test_sessions()[0].items[0];
  std::cout << "\nCandidates for item_" << query << ":";
  for (const auto& r : engine->Query(query, 5)) {
    std::cout << " item_" << r.id;
  }
  std::cout << "\n";
  return 0;
}
