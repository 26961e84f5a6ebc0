// The distributed training engine end to end (Section III): build the item
// graph, partition leaf categories with HBGP, train on the simulated
// cluster with ATNS, and inspect communication statistics and the
// cost-model wall-clock estimate — comparing HBGP against random
// partitioning and ATNS against plain TNS.

#include <iostream>

#include "corpus/corpus.h"
#include "datagen/dataset.h"
#include "dist/cost_model.h"
#include "dist/distributed_trainer.h"
#include "graph/category_graph.h"
#include "graph/item_graph.h"
#include "graph/partitioner.h"

using namespace sisg;

namespace {

void Report(const char* label, const DistTrainResult& r, uint32_t dim,
            uint32_t negatives) {
  const SimulatedTime t = EstimateTime(r.comm, dim, negatives, {});
  std::cout << label << "\n"
            << "  pairs: " << r.train.pairs_trained
            << "  (local " << r.comm.local_pairs << ", remote "
            << r.comm.remote_pairs << ", hot " << r.comm.hot_pairs << ")\n"
            << "  remote fraction: " << 100.0 * r.comm.RemoteFraction()
            << "%  load imbalance: " << r.comm.LoadImbalance() << "\n"
            << "  bytes sent: " << r.comm.bytes_sent / 1e6 << " MB"
            << "  sync rounds: " << r.comm.sync_rounds << " ("
            << r.comm.sync_bytes / 1e6 << " MB)\n"
            << "  simulated cluster time: " << t.makespan_s << "s\n\n";
}

}  // namespace

int main() {
  DatasetSpec spec;
  spec.name = "DistSyn";
  spec.catalog.num_items = 8000;
  spec.catalog.num_leaf_categories = 32;
  spec.users.num_user_types = 400;
  spec.num_train_sessions = 12000;
  spec.num_test_sessions = 100;
  auto dataset = SyntheticDataset::Generate(spec);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }

  // Enriched corpus (item SI + user types).
  TokenSpace ts = TokenSpace::Create(&dataset->catalog(), &dataset->users());
  Corpus corpus;
  VectorSessionSource sessions(&dataset->train_sessions());
  if (auto st = corpus.BuildFromSource(&sessions, ts, dataset->catalog(),
                                       CorpusOptions{});
      !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::cout << "Corpus: " << corpus.num_tokens() << " tokens, vocab "
            << corpus.vocab().size() << "\n\n";

  // HBGP partitioning over the leaf-category graph.
  const uint32_t kWorkers = 8;
  ItemGraph graph;
  if (auto st =
          graph.Build(dataset->train_sessions(), dataset->catalog().num_items());
      !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  const CategoryGraph cg = CategoryGraph::FromItemGraph(graph, dataset->catalog());
  HbgpPartitioner hbgp;
  auto hbgp_assign = hbgp.PartitionCategories(cg, kWorkers);
  if (!hbgp_assign.ok()) {
    std::cerr << hbgp_assign.status().ToString() << "\n";
    return 1;
  }
  const PartitionQuality q = EvaluatePartition(cg, *hbgp_assign, kWorkers);
  std::cout << "HBGP over " << cg.num_categories() << " leaf categories -> "
            << kWorkers << " workers: cross-edge rate "
            << 100.0 * q.cross_rate << "%, imbalance " << q.imbalance << "\n\n";

  DistOptions opts;
  opts.num_workers = kWorkers;
  opts.sgns.dim = 48;
  opts.sgns.epochs = 2;
  opts.sgns.negatives = 10;

  // 1. Full run (real parameter updates) with HBGP + ATNS.
  {
    EmbeddingModel model;
    DistTrainResult result;
    const auto item_worker =
        ItemAssignmentFromCategories(*hbgp_assign, dataset->catalog());
    if (auto st = DistributedTrainer(opts).Train(corpus, ts, item_worker,
                                                 &model, &result);
        !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    Report("HBGP + ATNS (real training)", result, opts.sgns.dim,
           opts.sgns.negatives);
  }

  // 2. Routing-only comparisons (dry runs).
  opts.dry_run = true;
  {
    RandomPartitioner random;
    auto rand_assign = random.PartitionCategories(cg, kWorkers);
    DistTrainResult result;
    (void)DistributedTrainer(opts).Train(
        corpus, ts, ItemAssignmentFromCategories(*rand_assign, dataset->catalog()),
        nullptr, &result);
    Report("random partitioning + ATNS (dry run)", result, opts.sgns.dim,
           opts.sgns.negatives);
  }
  {
    DistOptions tns = opts;
    tns.use_atns = false;
    DistTrainResult result;
    (void)DistributedTrainer(tns).Train(
        corpus, ts, ItemAssignmentFromCategories(*hbgp_assign, dataset->catalog()),
        nullptr, &result);
    Report("HBGP + plain TNS, no hot set (dry run)", result, opts.sgns.dim,
           opts.sgns.negatives);
  }
  return 0;
}
