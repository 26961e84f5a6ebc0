// Ablation of the distributed engine's two design choices (Section III):
//   - partitioning strategy: HBGP vs hash / random / greedy-frequency
//     (cross-partition pair rate, load imbalance, simulated makespan);
//   - ATNS vs plain TNS (hot-set replication + aggressive SI downsampling):
//     remote traffic, load imbalance, sync overhead.

#include <iostream>
#include <memory>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/rng.h"
#include "corpus/corpus.h"
#include "dist/cost_model.h"
#include "dist/distributed_trainer.h"
#include "graph/category_graph.h"
#include "graph/item_graph.h"
#include "graph/partitioner.h"
#include "obs/table_printer.h"

namespace sisg {
namespace {

void Main() {
  const auto spec = bench::DefaultSpec("AblationPartition");
  auto dataset = SyntheticDataset::Generate(spec);
  SISG_CHECK_OK(dataset.status());
  const uint32_t workers =
      static_cast<uint32_t>(GetEnvInt64("SISG_WORKERS", 8));

  TokenSpace ts = TokenSpace::Create(&dataset->catalog(), &dataset->users());
  Corpus corpus;
  VectorSessionSource sessions(&dataset->train_sessions());
  SISG_CHECK_OK(corpus.BuildFromSource(&sessions, ts, dataset->catalog(),
                                       CorpusOptions{}));
  ItemGraph graph;
  SISG_CHECK_OK(
      graph.Build(dataset->train_sessions(), dataset->catalog().num_items()));
  const CategoryGraph cg =
      CategoryGraph::FromItemGraph(graph, dataset->catalog());

  // ---- Partitioner comparison (static graph metrics + engine dry run) ----
  std::vector<std::unique_ptr<Partitioner>> partitioners;
  partitioners.push_back(std::make_unique<HashPartitioner>());
  partitioners.push_back(std::make_unique<RandomPartitioner>());
  partitioners.push_back(std::make_unique<GreedyFrequencyPartitioner>());
  partitioners.push_back(std::make_unique<HbgpPartitioner>());

  std::cout << "=== Ablation: partitioning strategy (" << workers
            << " workers) ===\n";
  TablePrinter t({"strategy", "cross-edge %", "graph imbalance",
                  "remote pair %", "pair imbalance", "sim. time (s)"});
  auto run_items = [&](const std::string& name,
                       const std::vector<uint32_t>& item_worker,
                       const PartitionQuality* q) {
    DistOptions opts;
    opts.num_workers = workers;
    opts.dry_run = true;
    opts.sgns.epochs = 1;
    DistTrainResult r;
    SISG_CHECK_OK(
        DistributedTrainer(opts).Train(corpus, ts, item_worker, nullptr, &r));
    const SimulatedTime time =
        EstimateTime(r.comm, opts.sgns.dim, opts.sgns.negatives, {});
    t.AddRow({name, q ? TablePrinter::Fixed(100.0 * q->cross_rate, 1) : "-",
              q ? TablePrinter::Fixed(q->imbalance, 2) : "-",
              TablePrinter::Fixed(100.0 * r.comm.RemoteFraction(), 1),
              TablePrinter::Fixed(r.comm.LoadImbalance(), 2),
              TablePrinter::Fixed(time.makespan_s, 1)});
  };
  // The truly naive baseline: hash ITEMS directly, ignoring the category
  // structure — same-leaf pairs then cross workers with prob (w-1)/w, which
  // is exactly what Section III-B's category split avoids.
  {
    std::vector<uint32_t> item_hash(dataset->catalog().num_items());
    for (uint32_t i = 0; i < item_hash.size(); ++i) {
      item_hash[i] = static_cast<uint32_t>(Mix64(i) % workers);
    }
    run_items("item-hash (no category split)", item_hash, nullptr);
  }
  for (const auto& p : partitioners) {
    auto assign = p->PartitionCategories(cg, workers);
    SISG_CHECK_OK(assign.status());
    const PartitionQuality q = EvaluatePartition(cg, *assign, workers);
    run_items(p->name() + " categories",
              ItemAssignmentFromCategories(*assign, dataset->catalog()), &q);
  }
  t.Print(std::cout);
  std::cout << "Expected: HBGP minimizes cross-partition traffic at bounded "
               "imbalance (beta = 1.2), so it has the lowest makespan.\n\n";

  // ---- ATNS vs plain TNS ----
  HbgpPartitioner hbgp;
  auto assign = hbgp.PartitionCategories(cg, workers);
  SISG_CHECK_OK(assign.status());
  const auto item_worker =
      ItemAssignmentFromCategories(*assign, dataset->catalog());

  std::cout << "=== Ablation: ATNS vs plain TNS (" << workers
            << " workers, HBGP partitions) ===\n";
  TablePrinter t2({"engine", "remote pair %", "hot pair %", "pair imbalance",
                   "MB sent", "sync MB", "sim. time (s)"});
  struct EngineCase {
    const char* name;
    bool atns;
    bool aggressive_subsample;
  };
  for (const EngineCase& c :
       {EngineCase{"TNS", false, false},
        EngineCase{"ATNS (hot set)", true, false},
        EngineCase{"ATNS + aggressive SI downsampling", true, true}}) {
    DistOptions opts;
    opts.num_workers = workers;
    opts.dry_run = true;
    opts.sgns.epochs = 1;
    opts.use_atns = c.atns;
    if (c.aggressive_subsample) {
      opts.sgns.subsample = SubsampleConfig::Aggressive();
    }
    DistTrainResult r;
    SISG_CHECK_OK(
        DistributedTrainer(opts).Train(corpus, ts, item_worker, nullptr, &r));
    const SimulatedTime time =
        EstimateTime(r.comm, opts.sgns.dim, opts.sgns.negatives, {});
    const uint64_t total_pairs =
        r.comm.local_pairs + r.comm.remote_pairs + r.comm.hot_pairs;
    t2.AddRow({c.name, TablePrinter::Fixed(100.0 * r.comm.RemoteFraction(), 1),
               TablePrinter::Fixed(100.0 * r.comm.hot_pairs /
                                       std::max<uint64_t>(1, total_pairs),
                                   1),
               TablePrinter::Fixed(r.comm.LoadImbalance(), 2),
               TablePrinter::Fixed(r.comm.bytes_sent / 1e6, 1),
               TablePrinter::Fixed(r.comm.sync_bytes / 1e6, 1),
               TablePrinter::Fixed(time.makespan_s, 1)});
  }
  t2.Print(std::cout);
  std::cout << "Expected: the hot set absorbs the hottest contexts (remote "
               "traffic down, load spread), at the price of periodic replica "
               "sync; aggressive SI downsampling shrinks total work further "
               "(Section III-A).\n";
}

}  // namespace
}  // namespace sisg

int main() {
  sisg::Main();
  return 0;
}
