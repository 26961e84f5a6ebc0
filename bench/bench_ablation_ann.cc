// Ablation of the serving layer: brute-force scan vs IVF vs HNSW over a
// trained SISG matching space — recall@K against brute force, queries/sec,
// and scan fraction. At the paper's billion-item scale brute force is
// impossible; this quantifies what the approximate indexes give up.

#include <iostream>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/hnsw_index.h"
#include "core/ivf_index.h"
#include "core/pipeline.h"
#include "obs/table_printer.h"

namespace sisg {
namespace {

void Main() {
  auto spec = bench::DefaultSpec("AblationAnn");
  auto dataset = SyntheticDataset::Generate(spec);
  SISG_CHECK_OK(dataset.status());

  SisgConfig config;
  config.variant = SisgVariant::kSisgFU;
  config.sgns.dim = static_cast<uint32_t>(GetEnvInt64("SISG_DIM", 64));
  config.sgns.negatives = 10;
  config.sgns.epochs = static_cast<uint32_t>(GetEnvInt64("SISG_EPOCHS", 10));
  SisgPipeline pipeline(config);
  std::cerr << "[ann] training SISG-F-U..." << std::endl;
  auto model = pipeline.Train(*dataset);
  SISG_CHECK_OK(model.status());
  auto engine = model->BuildMatchingEngine();
  SISG_CHECK_OK(engine.status());

  const uint32_t k = 20;
  const uint32_t num_queries =
      static_cast<uint32_t>(GetEnvInt64("SISG_ANN_QUERIES", 300));
  std::vector<uint32_t> queries;
  for (uint32_t item = 0; queries.size() < num_queries &&
                          item < engine->num_items();
       item += 7) {
    if (engine->HasItem(item)) queries.push_back(item);
  }

  // Brute-force reference answers + timing.
  std::vector<std::vector<ScoredId>> truth(queries.size());
  Timer bf_timer;
  for (size_t i = 0; i < queries.size(); ++i) {
    truth[i] = engine->Query(queries[i], k);
  }
  const double bf_qps = queries.size() / bf_timer.ElapsedSeconds();

  const std::vector<float> cand = engine->DenseCandidateMatrix();
  IvfIndex ivf;
  IvfOptions ivf_opts;
  ivf_opts.kmeans.num_clusters =
      static_cast<uint32_t>(GetEnvInt64("SISG_IVF_CLUSTERS", 128));
  ivf_opts.nprobe = static_cast<uint32_t>(GetEnvInt64("SISG_IVF_NPROBE", 12));
  Timer ivf_build;
  SISG_CHECK_OK(ivf.Build(cand.data(),
                          engine->num_items(), engine->dim(), ivf_opts));
  const double ivf_build_s = ivf_build.ElapsedSeconds();

  HnswIndex hnsw;
  HnswOptions hnsw_opts;
  hnsw_opts.ef_search =
      static_cast<uint32_t>(GetEnvInt64("SISG_HNSW_EF", 96));
  Timer hnsw_build;
  SISG_CHECK_OK(hnsw.Build(cand.data(),
                           engine->num_items(), engine->dim(), hnsw_opts));
  const double hnsw_build_s = hnsw_build.ElapsedSeconds();

  auto measure = [&](auto&& query_fn) {
    double recall = 0.0;
    Timer timer;
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto approx = query_fn(queries[i]);
      if (truth[i].empty()) continue;
      int common = 0;
      for (const auto& a : truth[i]) {
        for (const auto& b : approx) common += a.id == b.id;
      }
      recall += static_cast<double>(common) / truth[i].size();
    }
    const double qps = queries.size() / timer.ElapsedSeconds();
    return std::make_pair(recall / queries.size(), qps);
  };
  const auto [ivf_recall, ivf_qps] = measure([&](uint32_t item) {
    return ivf.Query(engine->QueryRow(item), k, item);
  });
  const auto [hnsw_recall, hnsw_qps] = measure([&](uint32_t item) {
    return hnsw.Query(engine->QueryRow(item), k, item);
  });

  std::cout << "\n=== Ablation: matching-stage retrieval index ("
            << engine->num_items() << " items, d=" << engine->dim()
            << ", top-" << k << ") ===\n";
  TablePrinter t({"index", "recall@20 vs brute", "queries/s", "speedup",
                  "build (s)"});
  t.AddRow({"brute force", "1.000", TablePrinter::Fixed(bf_qps, 0), "1.0x",
            "-"});
  t.AddRow({"IVF (" + std::to_string(ivf_opts.kmeans.num_clusters) +
                " lists, nprobe " + std::to_string(ivf_opts.nprobe) + ")",
            TablePrinter::Fixed(ivf_recall, 3), TablePrinter::Fixed(ivf_qps, 0),
            TablePrinter::Fixed(ivf_qps / bf_qps, 1) + "x",
            TablePrinter::Fixed(ivf_build_s, 1)});
  t.AddRow({"HNSW (M " + std::to_string(hnsw_opts.M) + ", ef " +
                std::to_string(hnsw_opts.ef_search) + ")",
            TablePrinter::Fixed(hnsw_recall, 3),
            TablePrinter::Fixed(hnsw_qps, 0),
            TablePrinter::Fixed(hnsw_qps / bf_qps, 1) + "x",
            TablePrinter::Fixed(hnsw_build_s, 1)});
  t.Print(std::cout);
  std::cout << "At production scale brute force is infeasible; the paper's "
               "deployed matching stage serves from precomputed/approximate "
               "candidate structures.\n";
}

}  // namespace
}  // namespace sisg

int main() {
  sisg::Main();
  return 0;
}
