#ifndef SISG_CORPUS_CORPUS_H_
#define SISG_CORPUS_CORPUS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "corpus/enricher.h"
#include "corpus/packed_corpus.h"
#include "corpus/token_space.h"
#include "corpus/vocabulary.h"
#include "datagen/dataset.h"
#include "datagen/session_stream.h"

namespace sisg {

struct CorpusOptions {
  EnrichOptions enrich;
  uint32_t min_count = 1;

  /// Ingest parallelism: the source's blocks are parsed and counted on this
  /// many workers, then encoded into the packed arena in parallel. Enrichment is a pure function of the item, so a per-item
  /// token block is built once, workers count item *clicks* into flat
  /// per-worker arrays (one add per click, not one per enriched token), and
  /// sequences are written straight into the arena through that block table
  /// re-encoded to vocab ids. 0 = hardware concurrency, 1 = serial. The
  /// built corpus and vocabulary are byte-identical for every thread count:
  /// chunk boundaries are thread-independent, counting is commutative, id
  /// assignment is a total order, and sequences are emitted in input order.
  uint32_t num_threads = 1;
};

/// The training corpus: enriched sessions re-encoded in vocab-id space
/// (tokens below min_count dropped, sequences shorter than 2 dropped),
/// stored as one flat PackedCorpus arena. This is what trainers consume.
/// Every corpus is built from a SessionSource: a SessionStream for a
/// sessions file, a VectorSessionSource for sessions already in memory.
class Corpus {
 public:
  Corpus() = default;

  /// Enriches the sessions of `source` and builds the vocabulary + packed
  /// arena. The calling thread reads raw blocks and the ingest workers
  /// parse and count them; bad lines are folded into the source's error
  /// budget in input order, so errors and IngestStats do not depend on the
  /// thread count. The enriched token sequences are never materialized:
  /// parsed sessions are held until they are encoded straight into the
  /// arena.
  Status BuildFromSource(SessionSource* source, const TokenSpace& token_space,
                         const ItemCatalog& catalog, const CorpusOptions& options);

  const Vocabulary& vocab() const { return vocab_; }
  const PackedCorpus& packed() const { return packed_; }
  const CorpusOptions& options() const { return options_; }

  /// Total tokens across sequences (after min_count filtering).
  uint64_t num_tokens() const { return packed_.num_tokens(); }
  uint64_t num_sequences() const { return packed_.size(); }

  /// Corpus cache: Save publishes `prefix`.vocab + `prefix`.corpus (both
  /// checksummed SISGART1 artifacts), so repeated training runs on the same
  /// dataset can skip the rebuild. Load validates the checksums, that the
  /// cache was built with `expected` enrich/min_count options
  /// (FailedPrecondition otherwise — callers rebuild), and that every token
  /// is inside the loaded vocabulary (DataLoss otherwise).
  Status Save(const std::string& prefix) const;
  static StatusOr<Corpus> Load(const std::string& prefix,
                               const CorpusOptions& expected,
                               const TokenSpace& token_space);

 private:
  CorpusOptions options_;
  Vocabulary vocab_;
  PackedCorpus packed_;
};

}  // namespace sisg

#endif  // SISG_CORPUS_CORPUS_H_
