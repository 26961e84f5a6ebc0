#ifndef SISG_CORE_MATCHING_ENGINE_H_
#define SISG_CORE_MATCHING_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/quant.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/top_k.h"
#include "core/embedding_arena.h"
#include "core/hnsw_index.h"
#include "core/ivf_index.h"

namespace sisg {

class ThreadPool;

/// Which retrieval structure serves queries. Brute force is both the
/// baseline and the graceful-degradation fallback: an ANN index that fails
/// to build or to load never takes the query path down with it.
enum class AnnBackend { kBruteForce, kIvf, kHnsw };

/// Precision of the brute-force candidate scan. kInt8 scans 1-byte codes
/// (4x+ fewer bytes than fp32) and exactly re-scores a small shortlist;
/// PQ lives inside the IVF backend (EnableIvfPq), not here.
enum class QuantMode { kFp32, kInt8 };

/// How a query item is scored against candidates (Section II-C).
enum class SimilarityMode {
  /// cosine(input_q, input_c): the standard symmetric similarity.
  kCosineInput,
  /// input_q . output_c: the directional score used by SISG-F-U-D — the
  /// probability-like affinity of c FOLLOWING q.
  kDirectionalInOut,
};

/// Brute-force top-K retrieval over per-item embedding matrices — the
/// matching-stage candidate generator. Rows for items absent from training
/// should be zero; they are skipped as candidates.
///
/// Serving path: Build() compacts the trained candidate rows into one
/// 64-byte-aligned padded-stride block (untrained rows dropped, ids kept in
/// a side array), and every query is a single blocked TopKScan through the
/// runtime-dispatched SIMD kernels — no per-candidate function calls, no
/// branch on untrained rows in the hot loop.
class MatchingEngine {
 public:
  MatchingEngine() = default;

  /// `in` is num_items x dim row-major. `out` is required (same shape) for
  /// kDirectionalInOut and ignored for kCosineInput.
  Status Build(std::vector<float> in, std::vector<float> out, uint32_t num_items,
               uint32_t dim, SimilarityMode mode);

  uint32_t num_items() const { return num_items_; }
  uint32_t dim() const { return dim_; }
  SimilarityMode mode() const { return mode_; }

  /// Whether the item had a non-zero embedding (i.e. was trained).
  bool HasItem(uint32_t item) const {
    return item < num_items_ && has_item_[item] != 0;
  }

  /// Top-k most similar items to `item`, excluding itself. Empty when the
  /// item is unknown/untrained.
  std::vector<ScoredId> Query(uint32_t item, uint32_t k) const;

  /// Top-k against an externally supplied query vector (cold-start inference
  /// via Eq. 6, or cold-user vectors). The vector must have dim() floats.
  std::vector<ScoredId> QueryVector(const float* query, uint32_t k) const;

  /// Multi-query serving: the answers of Query() for each item in `items`,
  /// bit for bit. Items go in fixed blocks through QueryBatchCoalesced, one
  /// serial pass per block, the blocks fanned out over a ThreadPool when
  /// num_threads > 1. Results align with `items`.
  std::vector<std::vector<ScoredId>> QueryBatch(
      const std::vector<uint32_t>& items, uint32_t k,
      uint32_t num_threads = 1) const;

  /// Coalesced micro-batch serving: answers all `n` queries (per-query k) in
  /// ONE chunk-tiled pass over the candidate block — each ~32KB chunk of
  /// candidate rows is scanned by every query while it is cache-hot, so the
  /// block is streamed from memory once per batch instead of once per query,
  /// and dispatch/top-k setup amortize across the batch. Results are
  /// bit-identical to calling Query(items[i], ks[i]) per item (same kernels,
  /// same row order, same selector state evolution); this is what makes the
  /// network batcher's answers indistinguishable from the one-shot CLI's.
  /// With a `pool`, the batch is sharded into per-worker coalesced
  /// sub-batches. ANN backends fall back to the per-query path (posting-list
  /// walks share no linear scan).
  std::vector<std::vector<ScoredId>> QueryBatchCoalesced(
      const uint32_t* items, const uint32_t* ks, size_t n,
      ThreadPool* pool = nullptr) const;

  /// Pairwise score between two items under the engine's mode.
  float Score(uint32_t query_item, uint32_t candidate) const;

  /// --- ANN acceleration with graceful degradation. Each Enable* attempts
  /// to install the index over candidate_matrix(); on failure the engine
  /// LOGs the degradation, keeps serving through the brute-force block scan
  /// (queries never error), marks degraded() and returns the underlying
  /// failure so callers can surface it.
  Status EnableIvf(const IvfOptions& options);
  Status EnableHnsw(const HnswOptions& options);
  /// IVF with product-quantized posting lists: ADC scans over m-byte codes,
  /// exact fp32 rerank of the shortlist. Same degradation contract as the
  /// other Enable*.
  Status EnableIvfPq(const IvfOptions& ivf_options, const PqOptions& pq_options,
                     uint32_t rerank = 0);
  /// Installs a pre-built IVF index from a checksummed artifact; a corrupt
  /// file yields Status::DataLoss (and brute-force fallback), an index built
  /// for a different engine shape yields FailedPrecondition.
  Status EnableIvfFromFile(const std::string& path);
  /// Persists the currently installed IVF index (FailedPrecondition when the
  /// active backend is not IVF).
  Status SaveIvf(const std::string& path) const;

  AnnBackend ann_backend() const { return backend_; }
  /// True when an ANN enable failed and the engine fell back to brute force.
  bool degraded() const { return degraded_; }

  /// --- Quantized brute-force scan (int8). Same degradation contract as
  /// the ANN enables: a corrupt or mismatched quantized artifact marks the
  /// engine degraded (serve.degraded gauge) and queries keep flowing
  /// through the fp32 path, bit-identical to before the attempt.
  Status EnableInt8();
  Status EnableInt8FromFile(const std::string& path, bool use_mmap = false);
  /// Persists the int8 code arena as a QNTARENA artifact (quantizing first
  /// if int8 is not yet enabled is the caller's job — FailedPrecondition).
  Status SaveInt8(const std::string& path) const;
  QuantMode quant_mode() const { return quant_mode_; }

  /// --- Arena serving: freeze the fp32 serving state (query rows,
  /// candidate block, id map, liveness) into one EMBARENA artifact, and
  /// reconstitute an engine from it without touching the training-side
  /// model at all. With use_mmap the float blocks stay in the file mapping
  /// (page-cache-backed serving for models larger than RAM); heap and mmap
  /// loads answer queries bit-identically.
  Status SaveArena(const std::string& path) const;
  Status LoadArena(const std::string& path, bool use_mmap = false);
  bool arena_backed() const { return arena_ != nullptr; }

  /// The matrix candidates are scored against (normalized input rows in
  /// cosine mode, normalized output rows in directional mode) — what an ANN
  /// index (IvfIndex, HnswIndex) should be built over. num_items() x dim()
  /// row-major.
  const std::vector<float>& candidate_matrix() const {
    return mode_ == SimilarityMode::kDirectionalInOut ? out_ : in_;
  }

  /// The query-side row for an item (valid while the engine lives). For an
  /// arena-backed engine this points into the arena (possibly an mmap).
  const float* QueryRow(uint32_t item) const {
    return query_data_ + static_cast<size_t>(item) * query_stride_;
  }

 private:
  /// The candidate-side row for an item, or nullptr when the item has no
  /// candidate row (untrained, or absent from the compact block).
  const float* CandidateRow(uint32_t item) const {
    if (!in_.empty() || !out_.empty()) {
      const std::vector<float>& m =
          mode_ == SimilarityMode::kDirectionalInOut ? out_ : in_;
      return m.data() + static_cast<size_t>(item) * dim_;
    }
    const uint32_t row = row_of_item_[item];
    if (row == UINT32_MAX) return nullptr;
    return cand_data_ + static_cast<size_t>(row) * block_stride_;
  }

  /// num_items() x dim() dense candidate matrix for ANN index builds:
  /// the engine's own matrix when model-built, or a dense rematerialization
  /// of the compact block when arena-backed (scratch holds it then).
  const float* DenseCandidateMatrix(std::vector<float>* scratch) const;

  /// (Re)derives the serving pointers and the item -> block-row map.
  void IndexCandidates();

  /// Blocked scan of the compact candidate block for one prepared query.
  /// Funnels the per-query paths (Query/QueryVector), so this is where the
  /// per-query latency histogram is recorded.
  std::vector<ScoredId> ScanBlock(const float* query, uint32_t k,
                                  uint32_t exclude) const;
  std::vector<ScoredId> ScanBlockImpl(const float* query, uint32_t k,
                                      uint32_t exclude) const;

  /// Publishes degraded_ to the serve.degraded gauge (cold path; runs on
  /// every ANN enable/degrade transition).
  void PublishDegraded() const;

  uint32_t num_items_ = 0;
  uint32_t dim_ = 0;
  SimilarityMode mode_ = SimilarityMode::kCosineInput;
  std::vector<float> in_;   // normalized rows in cosine mode (empty when
  std::vector<float> out_;  // arena-backed)
  std::vector<uint8_t> has_item_;

  // Compact serving block: only trained candidate rows, 64-byte-aligned
  // padded stride, plus the row -> item-id map the scan kernel consumes.
  // cand_data_/query_data_ point either into the heap storage below or into
  // an arena (possibly mmap'd) — the scan kernels cannot tell the
  // difference, which is what makes heap and mmap serving bit-identical.
  size_t block_stride_ = 0;
  AlignedFloatVector cand_block_;
  std::vector<uint32_t> cand_ids_;
  std::vector<uint32_t> row_of_item_;  // item -> block row (UINT32_MAX: none)
  const float* query_data_ = nullptr;
  size_t query_stride_ = 0;
  const float* cand_data_ = nullptr;
  std::unique_ptr<ServingArena> arena_;

  // Int8 brute-force scan state.
  QuantMode quant_mode_ = QuantMode::kFp32;
  std::unique_ptr<Int8Arena> int8_arena_;

  // Optional ANN acceleration; brute force remains the fallback whenever
  // these are absent (never built, failed to build, failed to load).
  AnnBackend backend_ = AnnBackend::kBruteForce;
  bool degraded_ = false;
  std::unique_ptr<IvfIndex> ivf_;
  std::unique_ptr<HnswIndex> hnsw_;
};

}  // namespace sisg

#endif  // SISG_CORE_MATCHING_ENGINE_H_
