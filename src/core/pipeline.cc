#include "core/pipeline.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "corpus/corpus.h"
#include "obs/metrics.h"
#include "dist/distributed_trainer.h"
#include "graph/category_graph.h"
#include "graph/item_graph.h"
#include "graph/partitioner.h"
#include "sgns/checkpoint.h"
#include "sgns/trainer.h"

namespace sisg {
namespace {

CorpusOptions MakeCorpusOptions(const SisgConfig& config) {
  CorpusOptions copts;
  copts.enrich.include_item_si = config.UseItemSi();
  copts.enrich.include_user_type = config.UseUserTypes();
  copts.min_count = config.min_count;
  copts.num_threads = config.ingest_threads;
  return copts;
}

}  // namespace

SgnsOptions SisgPipeline::EffectiveSgnsOptions() const {
  SgnsOptions sgns = config_.sgns;
  sgns.window.directional = config_.Directional();
  if (config_.UseItemSi()) {
    // The window is measured in tokens; SI injection interleaves surviving
    // SI tokens between items, so double the token window to keep the same
    // *item* span as the un-enriched variants (the paper sizes windows to
    // the fixed maximal sequence length for the same reason).
    sgns.window.window *= 2;
  }
  return sgns;
}

Status SisgPipeline::PrepareCorpus(SessionSource* source,
                                   const TokenSpace& token_space,
                                   const ItemCatalog& catalog, Corpus* corpus,
                                   PipelineReport* report) const {
  const CorpusOptions copts = MakeCorpusOptions(config_);
  Timer timer;
  if (!config_.corpus_cache.empty()) {
    auto cached = Corpus::Load(config_.corpus_cache, copts, token_space);
    if (cached.ok()) {
      *corpus = std::move(cached).value();
      report->corpus_cache_hit = true;
      LOG_INFO << "corpus cache hit: " << config_.corpus_cache << " ("
               << corpus->num_sequences() << " sequences)";
    } else {
      LOG_INFO << "corpus cache unusable (" << cached.status().ToString()
               << "); rebuilding";
    }
  }
  if (!report->corpus_cache_hit) {
    SISG_RETURN_IF_ERROR(
        corpus->BuildFromSource(source, token_space, catalog, copts));
  }
  // A drained stream has been read even on a cache hit; an unread one
  // reports zeros.
  if (source->ingest_stats() != nullptr) {
    report->ingest = *source->ingest_stats();
    if (report->ingest.lines_skipped > 0) {
      LOG_WARN << "ingest skipped " << report->ingest.lines_skipped
               << " malformed line(s); first: " << report->ingest.first_error;
    }
  }
  report->corpus_build_seconds = timer.ElapsedSeconds();
  report->corpus_sequences = corpus->num_sequences();
  report->corpus_tokens = corpus->num_tokens();
  if (report->corpus_cache_hit) return Status::OK();
  if (obs::MetricsEnabled()) {
    // Cold fold of the per-run ingest stats into the registry (parse-error
    // lines become a counter an operator can alert on).
    auto& reg = obs::MetricsRegistry::Global();
    reg.counter("ingest.sessions")->Add(report->ingest.sessions);
    reg.counter("ingest.lines_read")->Add(report->ingest.lines_read);
    reg.counter("ingest.parse_errors")->Add(report->ingest.lines_skipped);
    reg.gauge("ingest.corpus_build_seconds")
        ->Set(report->corpus_build_seconds);
    reg.gauge("ingest.sessions_per_sec")
        ->Set(report->corpus_build_seconds > 0.0
                  ? static_cast<double>(report->ingest.sessions) /
                        report->corpus_build_seconds
                  : 0.0);
  }
  if (!config_.corpus_cache.empty()) {
    SISG_RETURN_IF_ERROR(corpus->Save(config_.corpus_cache));
  }
  return Status::OK();
}

StatusOr<SisgModel> SisgPipeline::TrainFromSource(
    SessionSource* source, const std::vector<Session>* sessions,
    const ItemCatalog& catalog, const UserUniverse& users,
    PipelineReport* report) const {
  TokenSpace token_space = TokenSpace::Create(&catalog, &users);
  PipelineReport local;
  Corpus corpus;
  SISG_RETURN_IF_ERROR(
      PrepareCorpus(source, token_space, catalog, &corpus, &local));
  const SgnsOptions sgns = EffectiveSgnsOptions();

  EmbeddingModel emb;

  // Fault tolerance: periodic checkpointing and (optionally) resume from
  // the newest snapshot in checkpoint_dir.
  std::optional<Checkpointer> checkpointer;
  CheckpointConfig ckpt;
  TrainProgress resume_point;
  const CheckpointConfig* ckpt_ptr = nullptr;
  if (!config_.checkpoint_dir.empty()) {
    Checkpointer::Options copts;
    copts.dir = config_.checkpoint_dir;
    SISG_ASSIGN_OR_RETURN(Checkpointer created, Checkpointer::Create(copts));
    checkpointer.emplace(std::move(created));
    ckpt.checkpointer = &*checkpointer;
    // Default cadence (both trainers): ~8 snapshots over the planned slots.
    const uint64_t total_slots =
        static_cast<uint64_t>(sgns.epochs) * corpus.num_sequences();
    ckpt.interval_slots = config_.checkpoint_interval > 0
                              ? config_.checkpoint_interval
                              : std::max<uint64_t>(1, total_slots / 8);
    if (config_.resume && checkpointer->latest_seq() == 0) {
      // A job that crashed before its first checkpoint: the same restart
      // command starts it fresh.
      LOG_INFO << "resume: no checkpoint in " << config_.checkpoint_dir
               << " yet; starting fresh";
    } else if (config_.resume) {
      SISG_RETURN_IF_ERROR(
          checkpointer->LoadLatest(&emb, &resume_point));
      ckpt.resume = &resume_point;
      LOG_INFO << "resuming from checkpoint " << checkpointer->latest_seq()
               << " in " << config_.checkpoint_dir << " ("
               << resume_point.processed_tokens << " tokens processed)";
    }
    ckpt_ptr = &ckpt;
  }

  if (config_.distributed) {
    if (sessions == nullptr) {
      return Status::FailedPrecondition(
          "pipeline: the distributed engine needs materialized sessions for "
          "graph partitioning");
    }
    // Item partitioning via HBGP over the leaf-category graph (Section
    // III-B); SI and user types are assigned randomly inside the engine.
    ItemGraph graph;
    SISG_RETURN_IF_ERROR(graph.Build(*sessions, catalog.num_items()));
    const CategoryGraph cg = CategoryGraph::FromItemGraph(graph, catalog);
    HbgpPartitioner hbgp;
    SISG_ASSIGN_OR_RETURN(
        std::vector<uint32_t> cat_assign,
        hbgp.PartitionCategories(cg, config_.dist.num_workers));
    const std::vector<uint32_t> item_worker =
        ItemAssignmentFromCategories(cat_assign, catalog);

    DistOptions dopts = config_.dist;
    dopts.sgns = sgns;
    DistributedTrainer trainer(dopts);
    DistTrainResult result;
    SISG_RETURN_IF_ERROR(trainer.Train(corpus, token_space, item_worker, &emb,
                                       &result, ckpt_ptr));
    local.train = result.train;
    local.comm = result.comm;
  } else {
    SgnsTrainer trainer(sgns);
    SISG_RETURN_IF_ERROR(
        trainer.Train(corpus, &emb, &local.train, ckpt_ptr));
  }
  local.vocab_size = corpus.vocab().size();
  if (report != nullptr) *report = local;

  return SisgModel(config_, std::move(token_space), corpus.vocab(),
                   std::move(emb));
}

StatusOr<SisgModel> SisgPipeline::Train(const std::vector<Session>& sessions,
                                        const ItemCatalog& catalog,
                                        const UserUniverse& users,
                                        PipelineReport* report) const {
  VectorSessionSource source(&sessions);
  return TrainFromSource(&source, &sessions, catalog, users, report);
}

StatusOr<SisgModel> SisgPipeline::TrainStream(SessionSource* source,
                                              const ItemCatalog& catalog,
                                              const UserUniverse& users,
                                              PipelineReport* report) const {
  if (source == nullptr) {
    return Status::InvalidArgument("pipeline: null session source");
  }
  if (!config_.distributed) {
    return TrainFromSource(source, nullptr, catalog, users, report);
  }
  // Graph partitioning walks raw sessions, so the stream must land in
  // memory anyway: drain it, then build from the drained sessions with the
  // stream's ingest counters.
  SISG_ASSIGN_OR_RETURN(const std::vector<Session> sessions,
                        source->ReadAll());
  VectorSessionSource drained(&sessions, kDefaultChunkSessions,
                              source->ingest_stats());
  return TrainFromSource(&drained, &sessions, catalog, users, report);
}

StatusOr<SisgModel> SisgPipeline::Train(const SyntheticDataset& dataset,
                                        PipelineReport* report) const {
  return Train(dataset.train_sessions(), dataset.catalog(), dataset.users(),
               report);
}

}  // namespace sisg
