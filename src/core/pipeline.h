#ifndef SISG_CORE_PIPELINE_H_
#define SISG_CORE_PIPELINE_H_

#include <vector>

#include "common/status.h"
#include "core/sisg_model.h"
#include "datagen/dataset.h"
#include "datagen/session_stream.h"
#include "dist/comm_stats.h"

namespace sisg {

class Corpus;

/// Everything a training run reports besides the model itself.
struct PipelineReport {
  TrainStats train;
  CommStats comm;  // only populated for distributed runs
  uint32_t vocab_size = 0;

  /// Corpus construction: wall time, shape, whether the corpus cache
  /// satisfied the run, and — for streamed loads — the ingest counters
  /// (notably lines_skipped under a max_errors budget, so tolerated bad
  /// lines are never silent).
  double corpus_build_seconds = 0.0;
  uint64_t corpus_sequences = 0;
  uint64_t corpus_tokens = 0;
  bool corpus_cache_hit = false;
  IngestStats ingest;
};

/// The end-to-end SISG training pipeline (Section III-C): enrich sessions
/// per Eq. 4 as selected by the variant, build the frequency dictionary,
/// then train either on the local hogwild SGNS engine or on the simulated
/// distributed engine (HBGP item partitioning + ATNS). Every entry point
/// prepares its corpus one way, from a SessionSource: a session vector goes
/// in through a VectorSessionSource.
class SisgPipeline {
 public:
  explicit SisgPipeline(const SisgConfig& config) : config_(config) {}

  const SisgConfig& config() const { return config_; }

  /// The SGNS options the trainer actually runs with: the variant's
  /// directionality applied, and the token window doubled when item SI is
  /// injected (SI tokens interleave between items, so the *item* span of
  /// the window would otherwise halve).
  SgnsOptions EffectiveSgnsOptions() const;

  /// Trains on arbitrary sessions (served to the corpus builder by a
  /// VectorSessionSource). `catalog` and `users` must outlive the returned
  /// model (its TokenSpace references them).
  StatusOr<SisgModel> Train(const std::vector<Session>& sessions,
                            const ItemCatalog& catalog, const UserUniverse& users,
                            PipelineReport* report = nullptr) const;

  /// Streaming variant: sessions are pulled block-wise from `source` (e.g.
  /// a SessionStream over a sessions file) straight into the parallel
  /// corpus builder, so the raw session list is never materialized. The
  /// distributed engine needs the sessions for graph partitioning, so with
  /// config.distributed the stream is drained into memory and the corpus is
  /// built from the drained sessions; the report carries the stream's
  /// ingest counters either way.
  StatusOr<SisgModel> TrainStream(SessionSource* source,
                                  const ItemCatalog& catalog,
                                  const UserUniverse& users,
                                  PipelineReport* report = nullptr) const;

  /// Convenience overload for a generated dataset (trains on its training
  /// split).
  StatusOr<SisgModel> Train(const SyntheticDataset& dataset,
                            PipelineReport* report = nullptr) const;

 private:
  /// Builds the corpus from `source`, or loads it from config.corpus_cache
  /// when a valid compatible cache exists; fills the corpus-related report
  /// fields, including the source's ingest counters.
  Status PrepareCorpus(SessionSource* source, const TokenSpace& token_space,
                       const ItemCatalog& catalog, Corpus* corpus,
                       PipelineReport* report) const;

  /// The one tail of Train and TrainStream: prepares the corpus from
  /// `source`, trains and packages the model. `sessions` (the same sessions
  /// in memory) is only required by the distributed engine.
  StatusOr<SisgModel> TrainFromSource(SessionSource* source,
                                      const std::vector<Session>* sessions,
                                      const ItemCatalog& catalog,
                                      const UserUniverse& users,
                                      PipelineReport* report) const;

  SisgConfig config_;
};

}  // namespace sisg

#endif  // SISG_CORE_PIPELINE_H_
