// Reproduces Table I (the SI schema) and Table II (dataset statistics) for
// the scaled-down synthetic trio Syn8K / Syn16K / Syn32K, mirroring
// Taobao25M / Taobao100M / Taobao800M at roughly 1:1500 scale. Also prints
// the Section II-C asymmetry statistic (~20% of pairs significantly
// asymmetric in the paper's logs).

#include <iostream>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "datagen/feature_schema.h"
#include "obs/table_printer.h"

namespace sisg {
namespace {

DatasetSpec SpecOfScale(const std::string& name, uint32_t items,
                        uint32_t leaves, uint32_t sessions,
                        uint32_t user_types) {
  DatasetSpec spec;
  spec.name = name;
  spec.catalog.num_items = items;
  spec.catalog.num_leaf_categories = leaves;
  spec.catalog.leaves_per_top = 4;
  spec.catalog.num_shops = items / 14;
  spec.catalog.num_brands = items / 27;
  spec.users.num_user_types = user_types;
  spec.num_train_sessions = sessions;
  spec.num_test_sessions = 100;
  return spec;
}

void Main() {
  const int64_t s = bench::Scale();

  std::cout << "=== Table I: item and user features used for SISG ===\n";
  TablePrinter schema({"Entity", "Features"});
  std::string item_features;
  for (ItemFeatureKind kind : AllItemFeatureKinds()) {
    if (!item_features.empty()) item_features += ", ";
    item_features += ItemFeatureName(kind);
  }
  schema.AddRow({"Item", item_features});
  schema.AddRow({"User", "age_gender (cross feature), user_tags"});
  schema.Print(std::cout);
  std::cout << "Token form: [FeatureName]_[FeatureValue], e.g. \""
            << ItemFeatureToken(ItemFeatureKind::kLeafCategory, 1234) << "\"\n";

  const int window = 4;
  const int negatives = 20;  // the production negative ratio
  TablePrinter table({"", "Syn8K", "Syn16K", "Syn32K"});
  std::vector<DatasetStats> stats;
  for (const auto& spec :
       {SpecOfScale("Syn8K", 8000 * s, 32 * s, 12000 * s, 800 * s),
        SpecOfScale("Syn16K", 16000 * s, 64 * s, 24000 * s, 1200 * s),
        SpecOfScale("Syn32K", 32000 * s, 128 * s, 48000 * s, 1600 * s)}) {
    auto ds = SyntheticDataset::Generate(spec);
    SISG_CHECK_OK(ds.status());
    stats.push_back(ComputeDatasetStats(*ds, window, negatives));
  }
  auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells = {label};
    for (const auto& st : stats) cells.push_back(getter(st));
    table.AddRow(std::move(cells));
  };
  row("#Items", [](const DatasetStats& st) {
    return FormatWithCommas(st.num_items);
  });
  row("#SI", [](const DatasetStats& st) {
    return std::to_string(st.num_si_kinds);
  });
  row("#User types", [](const DatasetStats& st) {
    return FormatWithCommas(st.num_user_types);
  });
  row("#Tokens", [](const DatasetStats& st) {
    return "~" + FormatApprox(static_cast<double>(st.num_tokens));
  });
  row("#Positive pairs", [](const DatasetStats& st) {
    return "~" + FormatApprox(static_cast<double>(st.num_positive_pairs));
  });
  row("#Training pairs", [](const DatasetStats& st) {
    return "~" + FormatApprox(static_cast<double>(st.num_training_pairs));
  });
  row("Asymmetric pair rate", [](const DatasetStats& st) {
    return TablePrinter::Fixed(st.asymmetry_rate, 3);
  });

  std::cout << "\n=== Table II: statistics of the synthetic datasets ===\n";
  table.Print(std::cout);
  std::cout << "#Training pairs = #positive pairs x (1 + " << negatives
            << " negatives), the paper's accounting.\n";
  std::cout << "Section II-C reference: ~20% of item pairs show significantly "
               "different i->j vs j->i click counts; the directed co-click "
               "world is far above that floor by construction.\n";
}

}  // namespace
}  // namespace sisg

int main() {
  sisg::Main();
  return 0;
}
