// sisg_query — loads a model saved by sisg_train and serves top-K queries:
// per-item lookups, a full candidate-table export, or cold-start inference.
//
//   sisg_query --model /tmp/model --variant sisg-f-u-d --k 10 42 99 7
//   sisg_query --model /tmp/model --candidates /tmp/i2i.tsv --k 200
//   sisg_query --model /tmp/model --cold_gender F --cold_age 2
//   sisg_query --model /tmp/model --save_arena /tmp/serve
//   sisg_query --arena /tmp/serve --quant int8 --mmap --k 10 42 99 7

#include <cstdlib>
#include <iostream>
#include <utility>

#include "common/flags.h"
#include "core/candidate_table.h"
#include "core/cold_start.h"
#include "core/matching_engine.h"
#include "core/pipeline.h"
#include "serve/reloader.h"
#include "tools/tool_common.h"

using namespace sisg;

int main(int argc, char** argv) {
  FlagParser flags;
  const auto known = tools::WithWorldFlags(
      {"model", "variant", "k", "candidates", "threads", "cold_gender",
       "cold_age", "cold_purchase", "metrics_out", "metrics_interval",
       "quant", "mmap", "arena", "save_arena", "help"});
  if (auto st = flags.Parse(argc, argv, known); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 2;
  }
  const bool has_source = flags.Has("model") || flags.Has("arena");
  if (flags.GetBool("help", false) || !has_source) {
    std::cout << "usage: sisg_query --model PREFIX "
                 "[--variant sgns|sisg-f|sisg-u|sisg-f-u|sisg-f-u-d] "
                 "[--k 10] [item ids...]\n"
                 "  --candidates FILE   export the full item->top-K table\n"
                 "  --cold_gender F|M [--cold_age 0-6] [--cold_purchase 0-2]\n"
                 "  --quant fp32|int8|pq  candidate-scan precision\n"
                 "  --save_arena PREFIX freeze serving state to PREFIX.arena "
                 "+ PREFIX.qarena\n"
                 "  --arena PREFIX      serve from PREFIX.arena (no model "
                 "load; int8 uses PREFIX.qarena)\n"
                 "  --mmap              map arena artifacts instead of "
                 "heap-loading them\n"
                 "  --metrics_out FILE  per-query latency percentiles (JSON)\n"
                 "  --metrics_interval SECONDS  periodic progress lines\n"
                 "  [world flags matching sisg_train]\n";
    return has_source ? 0 : 2;
  }

  const std::string quant = flags.GetString("quant", "fp32");
  const bool use_mmap = flags.GetBool("mmap", false);
  const uint32_t k = static_cast<uint32_t>(flags.GetInt64("k", 10));

  const auto variant =
      tools::VariantFromName(flags.GetString("variant", "sisg-f-u-d"));
  if (!variant.ok()) {
    std::cerr << variant.status().ToString() << "\n";
    return 2;
  }

  MatchingEngine engine;
  std::vector<float> cold_query;  // the --cold_gender user vector
  if (flags.Has("arena")) {
    // Arena serving: the frozen .arena artifact carries everything queries
    // need, so the model (and the catalog it requires) is never loaded.
    if (flags.Has("cold_gender") || flags.Has("save_arena")) {
      std::cerr << "--arena serves a frozen engine; it cannot be combined "
                   "with --cold_gender or --save_arena\n";
      return 2;
    }
    auto loaded = serve::LoadServingVersion(flags.GetString("arena", ""),
                                            quant, use_mmap);
    if (!loaded.ok()) {
      std::cerr << "arena load failed: " << loaded.status().ToString()
                << "\n";
      return 1;
    }
    engine = std::move(loaded).value();
  } else {
    const DatasetSpec spec = tools::SpecFromFlags(flags);
    ItemCatalog catalog;
    UserUniverse users;
    if (auto st = catalog.Build(spec.catalog); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    if (auto st = users.Build(spec.users, catalog.num_tops()); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }

    SisgConfig config;
    config.variant = *variant;
    TokenSpace ts = TokenSpace::Create(&catalog, &users);
    auto model = SisgModel::Load(flags.GetString("model", ""), config, ts);
    if (!model.ok()) {
      std::cerr << "load failed: " << model.status().ToString() << "\n";
      return 1;
    }
    auto built = model->BuildMatchingEngine();
    if (!built.ok()) {
      std::cerr << built.status().ToString() << "\n";
      return 1;
    }
    engine = std::move(*built);

    if (flags.Has("save_arena")) {
      // Offline freeze: the fp32 serving block plus its int8 shadow, so a
      // later --arena run can pick either precision without the model.
      const std::string prefix = flags.GetString("save_arena", "serve");
      if (auto st = engine.SaveArena(prefix + ".arena"); !st.ok()) {
        std::cerr << st.ToString() << "\n";
        return 1;
      }
      if (auto st = engine.EnableInt8(); !st.ok()) {
        std::cerr << st.ToString() << "\n";
        return 1;
      }
      if (auto st = engine.SaveInt8(prefix + ".qarena"); !st.ok()) {
        std::cerr << st.ToString() << "\n";
        return 1;
      }
      std::cout << "froze serving state for " << engine.num_items()
                << " items to " << prefix << ".arena + " << prefix
                << ".qarena\n";
      return tools::ToolMetrics::FromFlags(flags).Finish();
    }

    // The same strict quant step and validation the served versions get.
    if (auto st = serve::PrepareServingEngine(&engine, quant, "", use_mmap);
        !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    if (flags.Has("cold_gender")) {
      const std::string g = flags.GetString("cold_gender", "F");
      const int gender = g == "F" ? 0 : (g == "M" ? 1 : 2);
      if (auto st = InferColdUserVector(
              *model, users, gender,
              static_cast<int>(flags.GetInt64("cold_age", -1)),
              static_cast<int>(flags.GetInt64("cold_purchase", -1)),
              &cold_query);
          !st.ok()) {
        std::cerr << st.ToString() << "\n";
        return 1;
      }
    }
  }

  // Metrics start once the engine is ready, so they count the requested
  // queries and not the validation canaries.
  tools::ToolMetrics metrics = tools::ToolMetrics::FromFlags(flags);
  // A Ctrl-C'd candidate export still leaves its latency artifact behind.
  metrics.InstallSignalFlush();

  if (flags.Has("cold_gender")) {
    std::cout << "cold-user top-" << k << ":";
    for (const auto& r : engine.QueryVector(cold_query.data(), k)) {
      std::cout << " item_" << r.id;
    }
    std::cout << "\n";
    return metrics.Finish();
  }

  if (flags.Has("candidates")) {
    CandidateTable table;
    if (auto st = table.Build(engine, k,
                              static_cast<uint32_t>(flags.GetInt64("threads", 1)));
        !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    const std::string path = flags.GetString("candidates", "candidates.tsv");
    if (auto st = table.SaveText(path); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    std::cout << "exported top-" << k << " candidates for "
              << table.num_items() << " items to " << path << "\n";
    return metrics.Finish();
  }

  // Ad-hoc lookups go through the batched serving API so --threads applies
  // here too, not only to the candidate-table export.
  std::vector<uint32_t> items;
  items.reserve(flags.positional().size());
  for (const std::string& arg : flags.positional()) {
    items.push_back(
        static_cast<uint32_t>(std::strtoul(arg.c_str(), nullptr, 10)));
  }
  const auto results = engine.QueryBatch(
      items, k, static_cast<uint32_t>(flags.GetInt64("threads", 1)));
  for (size_t i = 0; i < items.size(); ++i) {
    std::cout << "item_" << items[i] << " ->";
    if (results[i].empty()) std::cout << " (untrained or unknown item)";
    for (const auto& r : results[i]) {
      std::cout << " item_" << r.id << ":" << r.score;
    }
    std::cout << "\n";
  }
  return metrics.Finish();
}
