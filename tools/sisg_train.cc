// sisg_train — trains a SISG model on a session file written by
// sisg_datagen and saves it (binary model + optional word2vec text export).
//
//   sisg_train --input /tmp/sessions.txt --model /tmp/model
//              --variant sisg-f-u-d --dim 64 --epochs 20 [world flags]

#include <iostream>

#include "common/flags.h"
#include "core/pipeline.h"
#include "dist/fault_plan.h"
#include "tools/tool_common.h"

using namespace sisg;

int main(int argc, char** argv) {
  FlagParser flags;
  const auto known = tools::WithWorldFlags(
      {"input", "model", "variant", "dim", "epochs", "negatives", "window",
       "min_count", "threads", "ingest_threads", "max_errors", "corpus_cache",
       "distributed", "workers", "export_text", "checkpoint_dir",
       "checkpoint_interval", "resume", "fault_plan", "metrics_out",
       "metrics_interval", "help"});
  if (auto st = flags.Parse(argc, argv, known); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 2;
  }
  if (flags.GetBool("help", false) || !flags.Has("input")) {
    std::cout << "usage: sisg_train --input SESSIONS --model PREFIX\n"
                 "  [--variant sgns|sisg-f|sisg-u|sisg-f-u|sisg-f-u-d]\n"
                 "  [--dim 64] [--epochs 20] [--negatives 10] [--window 4]\n"
                 "  [--min_count 1] [--threads 1]\n"
                 "  [--ingest_threads 1] (0 = all cores; corpus build only)\n"
                 "  [--max_errors 0] (bad input lines tolerated + skipped)\n"
                 "  [--corpus_cache PREFIX] (reuse the built corpus on disk)\n"
                 "  [--distributed] [--workers 8] [--export_text FILE]\n"
                 "  [--checkpoint_dir DIR] [--checkpoint_interval N]\n"
                 "    (a snapshot every N work slots, one slot = one sequence\n"
                 "    in one epoch, for both trainers; 0 = ~8 per run)\n"
                 "  [--resume] [--fault_plan SPEC]\n"
                 "  [--metrics_out FILE] (JSON metrics artifact)\n"
                 "  [--metrics_interval SECONDS] (periodic progress lines)\n"
                 "  [world flags matching sisg_datagen]\n"
                 "fault plan SPEC: comma-separated key=value —\n"
                 "  kill_worker, kill_at_pair, drop, dup, sync_delay_every,\n"
                 "  sync_delay_s, crash_at_pair, seed\n";
    return flags.Has("input") ? 0 : 2;
  }

  // Rebuild the world and parse the sessions.
  const DatasetSpec spec = tools::SpecFromFlags(flags);
  ItemCatalog catalog;
  if (auto st = catalog.Build(spec.catalog); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  UserUniverse users;
  if (auto st = users.Build(spec.users, catalog.num_tops()); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  auto variant =
      tools::VariantFromName(flags.GetString("variant", "sisg-f-u-d"));
  if (!variant.ok()) {
    std::cerr << variant.status().ToString() << "\n";
    return 2;
  }
  SisgConfig config;
  config.variant = *variant;
  config.sgns.dim = static_cast<uint32_t>(flags.GetInt64("dim", 64));
  config.sgns.epochs = static_cast<uint32_t>(flags.GetInt64("epochs", 20));
  config.sgns.negatives =
      static_cast<uint32_t>(flags.GetInt64("negatives", 10));
  config.sgns.window.window =
      static_cast<uint32_t>(flags.GetInt64("window", 4));
  config.sgns.num_threads =
      static_cast<uint32_t>(flags.GetInt64("threads", 1));
  config.min_count = static_cast<uint32_t>(flags.GetInt64("min_count", 1));
  config.ingest_threads =
      static_cast<uint32_t>(flags.GetInt64("ingest_threads", 1));
  config.corpus_cache = flags.GetString("corpus_cache", "");
  config.distributed = flags.GetBool("distributed", false);
  config.dist.num_workers =
      static_cast<uint32_t>(flags.GetInt64("workers", 8));
  config.checkpoint_dir = flags.GetString("checkpoint_dir", "");
  config.checkpoint_interval =
      static_cast<uint64_t>(flags.GetInt64("checkpoint_interval", 0));
  config.resume = flags.GetBool("resume", false);
  if (flags.Has("fault_plan")) {
    auto plan = FaultPlan::Parse(flags.GetString("fault_plan", ""));
    if (!plan.ok()) {
      std::cerr << plan.status().ToString() << "\n";
      return 2;
    }
    config.dist.fault = *plan;
    if (plan->Active() && !config.distributed) {
      std::cerr << "fault plan: --fault_plan injects faults into the "
                   "distributed engine; pass --distributed\n";
      return 2;
    }
  }

  tools::ToolMetrics metrics = tools::ToolMetrics::FromFlags(flags);

  // Sessions stream chunk-wise from the input file straight into the
  // parallel corpus builder — the session list is never fully materialized
  // (except under --distributed, where graph partitioning needs it).
  SessionStreamOptions sopts;
  sopts.max_errors = static_cast<uint64_t>(flags.GetInt64("max_errors", 0));
  sopts.max_item_id = catalog.num_items();
  auto stream =
      SessionStream::Open(users, flags.GetString("input", ""), sopts);
  if (!stream.ok()) {
    std::cerr << stream.status().ToString() << "\n";
    return 1;
  }

  SisgPipeline pipeline(config);
  PipelineReport report;
  auto model = pipeline.TrainStream(&*stream, catalog, users, &report);
  if (!model.ok()) {
    std::cerr << "training failed: " << model.status().ToString() << "\n";
    return 1;
  }
  std::cout << "read " << report.ingest.sessions << " sessions";
  if (report.ingest.lines_skipped > 0) {
    std::cout << " (skipped " << report.ingest.lines_skipped
              << " bad lines; first: " << report.ingest.first_error << ")";
  }
  if (report.corpus_cache_hit) std::cout << " [corpus cache hit]";
  std::cout << "\n";
  std::cout << "corpus: " << report.corpus_sequences << " sequences, "
            << report.corpus_tokens << " tokens, "
            << report.corpus_build_seconds << "s build\n";
  std::cout << "trained " << report.vocab_size << " vectors, "
            << report.train.pairs_trained << " pairs, "
            << report.train.seconds << "s\n";
  if (config.distributed) {
    std::cout << "remote pair fraction " << report.comm.RemoteFraction()
              << ", load imbalance " << report.comm.LoadImbalance() << "\n";
  }

  const std::string prefix = flags.GetString("model", "sisg_model");
  if (auto st = model->Save(prefix); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::cout << "saved " << prefix << ".{vocab,emb}\n";
  if (flags.Has("export_text")) {
    const std::string path = flags.GetString("export_text", "vectors.txt");
    if (auto st = model->ExportText(path); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    std::cout << "exported word2vec text to " << path << "\n";
  }
  return metrics.Finish();
}
