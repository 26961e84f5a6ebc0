// Ablation: does distributing the training (Algorithm 1, with HBGP + ATNS)
// cost model quality? Trains the same SISG-F-U configuration locally and on
// the simulated distributed engine and compares HR@K — the quality-parity
// claim implicit in Section III (the engine changes WHERE updates run, not
// what is computed, up to the hot-set averaging).

#include <iostream>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/pipeline.h"
#include "eval/hitrate.h"
#include "obs/table_printer.h"

namespace sisg {
namespace {

void Main() {
  auto spec = bench::DefaultSpec("AblationDist");
  spec.catalog.num_items /= 2;  // keep the double-training run affordable
  spec.catalog.num_leaf_categories /= 2;
  spec.num_train_sessions /= 2;
  auto dataset = SyntheticDataset::Generate(spec);
  SISG_CHECK_OK(dataset.status());
  const std::vector<uint32_t> ks = {1, 10, 20, 100};

  SisgConfig config;
  config.variant = SisgVariant::kSisgFU;
  config.sgns.dim = static_cast<uint32_t>(GetEnvInt64("SISG_DIM", 64));
  config.sgns.negatives =
      static_cast<uint32_t>(GetEnvInt64("SISG_NEGATIVES", 10));
  config.sgns.epochs = static_cast<uint32_t>(GetEnvInt64("SISG_EPOCHS", 20));

  TablePrinter t({"engine", "HR@1", "HR@10", "HR@20", "HR@100",
                  "remote pair %", "pairs trained"});
  for (bool distributed : {false, true}) {
    SisgConfig c = config;
    c.distributed = distributed;
    c.dist.num_workers =
        static_cast<uint32_t>(GetEnvInt64("SISG_WORKERS", 8));
    SisgPipeline pipeline(c);
    PipelineReport report;
    auto model = pipeline.Train(*dataset, &report);
    SISG_CHECK_OK(model.status());
    auto engine = model->BuildMatchingEngine();
    SISG_CHECK_OK(engine.status());
    const auto res = EvaluateHitRate(
        dataset->test_sessions(),
        [&](uint32_t item, uint32_t k) { return engine->Query(item, k); }, ks);
    t.AddRow({distributed ? "distributed (HBGP + ATNS, 8 workers)" : "local hogwild",
              TablePrinter::Fixed(res.hit_rate[0], 4),
              TablePrinter::Fixed(res.hit_rate[1], 4),
              TablePrinter::Fixed(res.hit_rate[2], 4),
              TablePrinter::Fixed(res.hit_rate[3], 4),
              TablePrinter::Fixed(100.0 * report.comm.RemoteFraction(), 1),
              std::to_string(report.train.pairs_trained)});
  }
  std::cout << "\n=== Ablation: distributed vs local training quality ===\n";
  t.Print(std::cout);
  std::cout << "Expected: HR within a few percent — TNS relocates updates "
               "without changing the objective.\n";
}

}  // namespace
}  // namespace sisg

int main() {
  sisg::Main();
  return 0;
}
