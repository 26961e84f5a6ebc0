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
#include "core/ivf_index.h"

namespace sisg {

class ThreadPool;

/// Precision of the brute-force candidate scan. kInt8 scans 1-byte codes
/// (4x+ fewer bytes than fp32) and exactly re-scores a small shortlist;
/// PQ lives inside the IVF-PQ index (EnableIvfPq), not here.
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
/// One stored form: Build() compacts the trained candidate rows into one
/// 64-byte-aligned padded-stride block (untrained rows dropped, ids kept in
/// a side array) inside a heap ServingArena, the same form LoadArena()
/// returns (heap or mmap). One scan core: every query API funnels into the
/// chunk step below (a lap over that block's chunks through the
/// runtime-dispatched SIMD kernels) — no per-candidate function calls, no
/// branch on untrained rows in the hot loop; Query() and QueryVector() are
/// batches of one.
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
    return item < num_items_ && arena_->view().has_item[item] != 0;
  }

  /// Top-k most similar items to `item`, excluding itself. Empty when the
  /// item is unknown/untrained.
  std::vector<ScoredId> Query(uint32_t item, uint32_t k) const;

  /// Top-k against an externally supplied query vector (cold-start inference
  /// via Eq. 6, or cold-user vectors). The vector must have dim() floats.
  std::vector<ScoredId> QueryVector(const float* query, uint32_t k) const;

  /// Multi-query serving: the answers of Query() for each item in `items`,
  /// bit for bit — QueryBatchCoalesced with one k for all, over a ThreadPool
  /// of `num_threads` workers when num_threads > 1. Results align with
  /// `items`.
  std::vector<std::vector<ScoredId>> QueryBatch(
      const std::vector<uint32_t>& items, uint32_t k,
      uint32_t num_threads = 1) const;

  /// Coalesced multi-query scan: answers all `n` queries (per-query k) in
  /// ONE lap over the candidate block — each ~32KB chunk of
  /// candidate rows is scanned by every query while it is cache-hot, so the
  /// block is streamed from memory once per batch instead of once per query,
  /// and dispatch/top-k setup amortize across the batch. Query() is the same
  /// pass at n = 1, and the kernels fold rows into each query's selector in
  /// the same order at every batch size, so results are bit-identical to
  /// calling Query(items[i], ks[i]) per item. The batch
  /// is cut into shards of at most 256 queries, one pass each, run on
  /// `pool` when given and serially otherwise (see ForEachShard). An installed
  /// IVF-PQ index is walked per query (posting-list walks share no linear
  /// scan).
  std::vector<std::vector<ScoredId>> QueryBatchCoalesced(
      const uint32_t* items, const uint32_t* ks, size_t n,
      ThreadPool* pool = nullptr) const;

  /// --- Chunked scan: the step a shared scan ring is built from. The
  /// brute-force block (int8 codes, or fp32 rows) is cut into num_chunks()
  /// fixed chunks of ~32KB. A query begins at any chunk c and is scanned
  /// chunk by chunk in ring order c, c+1, ..., num_chunks() - 1, 0, ...,
  /// c - 1; any number of queries, each at its own point of its lap, share
  /// one ScanChunks call, so the chunk's bytes are read once for all of
  /// them. Each query keeps two selectors, one for rows from its start
  /// chunk on and one for the wrapped rows before it, each filled in
  /// ascending row order. FinishQuery merges them by (score desc, id asc)
  /// and reranks (int8), so the answer is Query()'s bit for bit whatever
  /// chunk the query began at (DESIGN.md §8). Query(), QueryVector() and
  /// QueryBatchCoalesced() are this step with every query begun at chunk 0.
  class ChunkQuery {
   public:
    ChunkQuery() = default;
    /// The chunk its lap began at, and so the chunk it ends before.
    uint32_t start_chunk() const { return start_; }

   private:
    friend class MatchingEngine;
    const float* query_ = nullptr;  // prepared row (normalized), not owned
    uint32_t exclude_ = UINT32_MAX;
    uint32_t k_ = 0;
    uint32_t depth_ = 0;  // selector capacity: k, or the int8 shortlist
    uint32_t start_ = 0;
    uint64_t begin_ns_ = 0;  // BeginQuery's clock (metrics on), else 0
    std::vector<int8_t> codes_;  // int8 mode: the quantized query
    Int8Query iq_;
    TopKSelector head_{0};  // rows [start chunk, end)
    TopKSelector tail_{0};  // rows [0, start chunk)
  };

  /// Whether queries go through the chunk step: true unless an IVF-PQ
  /// index is installed, whose posting-list walks answer whole queries.
  bool chunked() const { return ivf_ == nullptr; }
  /// Chunks of the brute-force block (0 when it holds no candidates).
  uint32_t num_chunks() const;
  /// Prepares `q` to answer Query(item, k) with a lap that begins at chunk
  /// `start` (< num_chunks()). False, leaving `q` unusable, when the answer
  /// is empty without a scan: an unknown or untrained item, k == 0, or no
  /// candidates. The item's query row lives in the engine, so `q` must not
  /// outlive it.
  bool BeginQuery(uint32_t item, uint32_t k, uint32_t start,
                  ChunkQuery* q) const;
  /// Scans chunks first, first + 1, ... (`count` of them, wrapping past the
  /// last chunk) for qs[0, n), on the calling thread. No query may reach
  /// the end of its lap before the last of them.
  void ScanChunks(uint32_t first, uint32_t count, ChunkQuery* const* qs,
                  size_t n) const;
  /// The answer of a query whose lap is complete: merges its two
  /// selectors, reranks an int8 shortlist exactly, and counts it in
  /// serve.queries. A query begun by BeginQuery is one scan call: its
  /// BeginQuery-to-answer time is one serve.query_seconds observation.
  std::vector<ScoredId> FinishQuery(ChunkQuery* q) const;

  /// --- Serving accelerations. One contract for every enable: on success
  /// the new scan is installed; on failure the error is returned and the
  /// engine is left exactly as it was (same quant_mode(), same index, same
  /// answers bit for bit). Callers decide what a failure means; the serving
  /// loader (serve::PrepareServingEngine) rejects the version.
  ///
  /// IVF-PQ: builds an IVF index over DenseCandidateMatrix() and
  /// product-quantizes its posting lists, so queries scan m-byte ADC codes
  /// and exactly re-score a shortlist.
  Status EnableIvfPq(const IvfOptions& ivf_options, const PqOptions& pq_options);

  /// Quantized brute-force scan (int8): quantizes the candidate block in
  /// place, or loads a QNTARENA artifact whose shape must match the block
  /// (FailedPrecondition otherwise).
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

  /// Dense num_items() x dim() copy of the candidate rows (normalized input
  /// rows in cosine mode, normalized output rows in directional mode; zero
  /// rows for items without one) — what an ANN index (IvfIndex, HnswIndex)
  /// is built over. Allocates; the query path never calls it.
  std::vector<float> DenseCandidateMatrix() const;

  /// The query-side row for a known item (valid while the engine lives). It
  /// points into the arena, possibly an mmap.
  const float* QueryRow(uint32_t item) const {
    const ServingArena::View& v = arena_->view();
    return v.query_rows + static_cast<size_t>(item) * v.query_stride;
  }

 private:
  /// One query of a scan: the prepared query row, the item id it must not
  /// return (UINT32_MAX: none), its k (> 0), and where its answer goes.
  struct Active;

  /// Answers act[0, n): records one serve.query_seconds observation for
  /// the call, then cuts the span into ScanSpan shards by ForEachShard. Every
  /// query API but the ring's BeginQuery funnels through here.
  void Scan(const Active* act, size_t n, ThreadPool* pool) const;
  /// The scan core: an IVF-PQ walk per query when ivf_ is installed,
  /// otherwise one lap of chunk steps from chunk 0 over the candidate block
  /// (int8 shortlist plus exact fp32 rerank, or the fp32 scan).
  void ScanSpan(const Active* act, size_t n) const;
  /// Prepares `q` for the query `a` with a lap from chunk `start`.
  void Prepare(const Active& a, uint32_t start, ChunkQuery* q) const;
  /// Rows per chunk of the brute-force block: ~32KB of codes or rows, a
  /// whole number of int8 groups.
  uint32_t ChunkRows() const;

  /// Takes ownership of the serving state and resets everything derived
  /// from the previous one (int8 codes, IVF-PQ index).
  void InstallArena(std::unique_ptr<ServingArena> arena);
  /// Switches the scan to `codes` (one row per candidate-block row).
  void InstallInt8(std::unique_ptr<Int8Arena> codes);

  uint32_t num_items_ = 0;
  uint32_t dim_ = 0;
  SimilarityMode mode_ = SimilarityMode::kCosineInput;

  // The serving state, heap-owned after Build or a heap load, file-mapped
  // after an mmap load. The scan kernels cannot tell the difference, which
  // is what makes every form answer bit-identically.
  std::unique_ptr<ServingArena> arena_;

  // Int8 brute-force scan state; the shortlist scan takes block rows as
  // ids.
  QuantMode quant_mode_ = QuantMode::kFp32;
  std::unique_ptr<Int8Arena> int8_arena_;

  // Optional IVF-PQ acceleration; the brute-force scan serves whenever it
  // is absent.
  std::unique_ptr<IvfIndex> ivf_;
};

}  // namespace sisg

#endif  // SISG_CORE_MATCHING_ENGINE_H_
