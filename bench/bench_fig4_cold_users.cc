// Reproduces Figure 4: cold-start user recommendations per demographic
// group. For each (gender, age, purchase power) group the matching user-type
// vectors are averaged (Section IV-C1) and the top items retrieved; the
// figure's claim — recommendations differ sharply by gender/age and
// purchasing power maps to price level and brand target — is printed as the
// retrieved items' metadata plus quantitative separation measures.

#include <iostream>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/cold_start.h"
#include "core/pipeline.h"
#include "obs/table_printer.h"

namespace sisg {
namespace {

void Main() {
  const auto spec = bench::DefaultSpec("Fig4");
  auto dataset = SyntheticDataset::Generate(spec);
  SISG_CHECK_OK(dataset.status());

  SisgConfig config;
  config.variant = SisgVariant::kSisgFU;  // cosine space for cold vectors
  config.sgns.dim = static_cast<uint32_t>(GetEnvInt64("SISG_DIM", 64));
  config.sgns.negatives =
      static_cast<uint32_t>(GetEnvInt64("SISG_NEGATIVES", 10));
  config.sgns.epochs = static_cast<uint32_t>(GetEnvInt64("SISG_EPOCHS", 25));
  SisgPipeline pipeline(config);
  std::cerr << "[fig4] training SISG-F-U..." << std::endl;
  auto model = pipeline.Train(*dataset);
  SISG_CHECK_OK(model.status());
  auto engine = model->BuildMatchingEngine();
  SISG_CHECK_OK(engine.status());

  struct Group {
    const char* label;
    int gender, age, purchase;
  };
  const std::vector<Group> groups = {
      {"female, 26-30, low purchase power", 0, 2, 0},
      {"female, 26-30, high purchase power", 0, 2, 2},
      {"male, 26-30, high purchase power", 1, 2, 2},
      {"male, >60, low purchase power", 1, 6, 0},
      {"female, 18-25, mid purchase power", 0, 1, 1},
      {"male, 18-25, mid purchase power", 1, 1, 1},
  };

  const ItemCatalog& catalog = dataset->catalog();
  const uint32_t kTop = 8;
  std::vector<std::vector<ScoredId>> recs;
  std::cout << "=== Figure 4: cold-start recommendations per user group ===\n";
  for (const Group& g : groups) {
    std::vector<float> v;
    SISG_CHECK_OK(InferColdUserVector(*model, dataset->users(), g.gender,
                                      g.age, g.purchase, &v));
    const auto top = engine->QueryVector(v.data(), kTop);
    recs.push_back(top);
    std::cout << "\n" << g.label << ":\n";
    TablePrinter t({"item", "top_cat", "leaf", "brand", "price level",
                    "brand target"});
    for (const auto& r : top) {
      const ItemMeta& m = catalog.meta(r.id);
      int bg, ba, bp;
      ItemCatalog::DecodeAgp(m.age_gender_purchase_level, &bg, &ba, &bp);
      t.AddRow({"item_" + std::to_string(r.id),
                std::to_string(m.top_level_category),
                std::to_string(m.leaf_category),
                "brand_" + std::to_string(m.brand),
                TablePrinter::Fixed(catalog.Level(r.id), 2),
                std::string(GenderName(bg)) + "/" + PurchaseLevelName(bp)});
    }
    t.Print(std::cout);
  }

  // Quantitative versions of the figure's visual claims.
  auto overlap = [&](size_t a, size_t b) {
    int common = 0;
    for (const auto& x : recs[a]) {
      for (const auto& y : recs[b]) common += x.id == y.id;
    }
    return static_cast<double>(common) / kTop;
  };
  auto mean_level = [&](size_t g) {
    double level = 0.0;
    for (const auto& r : recs[g]) level += catalog.Level(r.id);
    return level / recs[g].size();
  };
  std::cout << "\nSeparation checks (Figure 4 claims):\n";
  std::cout << "  female-vs-male overlap (26-30, high power): "
            << TablePrinter::Fixed(overlap(1, 2), 2) << " (lower = better)\n";
  std::cout << "  young-vs-senior male overlap: "
            << TablePrinter::Fixed(overlap(5, 3), 2) << "\n";
  std::cout << "  mean price level, female low vs high power: "
            << TablePrinter::Fixed(mean_level(0), 2) << " vs "
            << TablePrinter::Fixed(mean_level(1), 2)
            << " (higher power -> higher level expected)\n";
}

}  // namespace
}  // namespace sisg

int main() {
  sisg::Main();
  return 0;
}
