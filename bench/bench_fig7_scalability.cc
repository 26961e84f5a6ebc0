// Reproduces Figure 7: scalability of the distributed SISG engine.
//  (a) training time vs number of workers on a fixed corpus (paper: close
//      to y ~ 1/x on Taobao100M with 32 workers max);
//  (b) training speed (tokens/hour) vs corpus size at a fixed worker count
//      (paper: speed decreases then stabilizes beyond ~12.8B tokens).
//
// The engine executes TNS/ATNS routing for real (dry-run: all pairs are
// partitioned, routed and counted); the measured per-worker loads and
// traffic are converted to cluster time by the cost model calibrated to the
// paper's hardware (Section IV-D: 50-core/10 Gbps machines). See DESIGN.md
// for why wall-clock scaling cannot be measured on this 1-core host.

#include <cmath>
#include <iostream>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "corpus/corpus.h"
#include "dist/cost_model.h"
#include "dist/distributed_trainer.h"
#include "graph/category_graph.h"
#include "graph/item_graph.h"
#include "graph/partitioner.h"
#include "obs/table_printer.h"

namespace sisg {
namespace {

struct RunResult {
  DistTrainResult dist;
  SimulatedTime time;
  uint64_t corpus_tokens = 0;
};

RunResult RunOnce(const SyntheticDataset& dataset, uint32_t workers,
                  uint32_t epochs) {
  TokenSpace ts = TokenSpace::Create(&dataset.catalog(), &dataset.users());
  Corpus corpus;
  VectorSessionSource sessions(&dataset.train_sessions());
  SISG_CHECK_OK(corpus.BuildFromSource(&sessions, ts, dataset.catalog(),
                                       CorpusOptions{}));

  ItemGraph graph;
  SISG_CHECK_OK(
      graph.Build(dataset.train_sessions(), dataset.catalog().num_items()));
  const CategoryGraph cg = CategoryGraph::FromItemGraph(graph, dataset.catalog());
  HbgpPartitioner hbgp;
  auto assign = hbgp.PartitionCategories(cg, workers);
  SISG_CHECK_OK(assign.status());
  const auto item_worker = ItemAssignmentFromCategories(*assign, dataset.catalog());

  DistOptions opts;
  opts.num_workers = workers;
  opts.dry_run = true;
  opts.sgns.epochs = epochs;
  RunResult out;
  DistributedTrainer trainer(opts);
  SISG_CHECK_OK(trainer.Train(corpus, ts, item_worker, nullptr, &out.dist));
  out.time = EstimateTime(out.dist.comm, opts.sgns.dim, opts.sgns.negatives,
                          ClusterCostConfig{});
  out.corpus_tokens = corpus.num_tokens() * epochs;
  return out;
}

void Main() {
  const int64_t s = bench::Scale();
  const uint32_t epochs = 2;  // the paper's production epoch count

  // ---- Figure 7(a): time vs workers, fixed corpus ----
  {
    auto spec = bench::DefaultSpec("Fig7a");
    auto dataset = SyntheticDataset::Generate(spec);
    SISG_CHECK_OK(dataset.status());

    std::cout << "=== Figure 7(a): training time vs number of workers ===\n";
    TablePrinter t({"workers", "sim. time (s)", "speedup", "ideal 1/x",
                    "remote pair %", "load imbalance"});
    double t1 = 0.0;
    for (uint32_t w : {1u, 2u, 4u, 8u, 16u, 32u}) {
      const RunResult r = RunOnce(*dataset, w, epochs);
      if (w == 1) t1 = r.time.makespan_s;
      t.AddRow({std::to_string(w), TablePrinter::Fixed(r.time.makespan_s, 1),
                TablePrinter::Fixed(t1 / r.time.makespan_s, 2) + "x",
                TablePrinter::Fixed(static_cast<double>(w), 2) + "x",
                TablePrinter::Fixed(100.0 * r.dist.comm.RemoteFraction(), 1),
                TablePrinter::Fixed(r.dist.comm.LoadImbalance(), 2)});
    }
    t.Print(std::cout);
    std::cout << "Paper: the trend is very close to y = 1/x.\n\n";
  }

  // ---- Figure 7(b): speed vs corpus size, fixed workers ----
  {
    const uint32_t workers = 32;
    std::cout << "=== Figure 7(b): training speed vs corpus size ("
              << workers << " workers) ===\n";
    TablePrinter t({"corpus tokens", "sim. time (s)", "speed (Mtokens/h)",
                    "remote pair %"});
    for (uint32_t scale : {1u, 2u, 4u, 8u, 16u}) {
      DatasetSpec spec = bench::DefaultSpec("Fig7b");
      spec.catalog.num_items = static_cast<uint32_t>(4000 * scale * s);
      spec.catalog.num_leaf_categories = static_cast<uint32_t>(64 * scale * s);
      spec.catalog.num_shops = 300 * scale;
      spec.catalog.num_brands = 150 * scale;
      spec.num_train_sessions = static_cast<uint32_t>(6000 * scale * s);
      spec.num_test_sessions = 10;
      auto dataset = SyntheticDataset::Generate(spec);
      SISG_CHECK_OK(dataset.status());
      const RunResult r = RunOnce(*dataset, workers, epochs);
      const double tokens_per_hour =
          static_cast<double>(r.corpus_tokens) / (r.time.makespan_s / 3600.0);
      t.AddRow({FormatWithCommas(r.corpus_tokens),
                TablePrinter::Fixed(r.time.makespan_s, 1),
                TablePrinter::Fixed(tokens_per_hour / 1e6, 1),
                TablePrinter::Fixed(100.0 * r.dist.comm.RemoteFraction(), 1)});
    }
    t.Print(std::cout);
    std::cout << "Paper: speed decreases with corpus size, then stabilizes "
                 "once the category structure saturates.\n";
  }
}

}  // namespace
}  // namespace sisg

int main() {
  sisg::Main();
  return 0;
}
