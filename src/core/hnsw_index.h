#ifndef SISG_CORE_HNSW_INDEX_H_
#define SISG_CORE_HNSW_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/simd.h"
#include "common/status.h"
#include "common/top_k.h"

namespace sisg {

/// Hierarchical Navigable Small World graph index (Malkov & Yashunin 2018)
/// over candidate embedding rows, scoring by inner product. The standard
/// high-recall ANN for embedding retrieval; with the MatchingEngine's
/// normalized candidate rows, inner product equals cosine, for which HNSW's
/// greedy search is well-behaved.
struct HnswOptions {
  uint32_t M = 16;                // links per node above level 0 (2M at level 0)
  uint32_t ef_construction = 100; // beam width while building
  uint32_t ef_search = 64;        // beam width while querying (>= k advised)
  uint64_t seed = 77;
};

class HnswIndex {
 public:
  HnswIndex() = default;

  /// Indexes `rows` x `dim` row-major vectors; zero rows are skipped. The
  /// data is copied. O(n log n * ef_construction) build.
  Status Build(const float* data, uint32_t rows, uint32_t dim,
               const HnswOptions& options);

  uint32_t num_vectors() const { return static_cast<uint32_t>(ids_.size()); }
  uint32_t dim() const { return dim_; }
  const HnswOptions& options() const { return options_; }

  /// Top-k original row ids by inner product with `query`; `exclude` is
  /// skipped. Empty if the index is empty.
  std::vector<ScoredId> Query(const float* query, uint32_t k,
                              uint32_t exclude = UINT32_MAX) const;

  /// Multi-query serving: `queries` is num_queries x dim() row-major;
  /// results align with queries. `excludes` is optional (one id per query).
  /// Fanned out over a ThreadPool when num_threads > 1 (queries are
  /// read-only, so concurrent beam searches need no locking).
  Status QueryBatch(const float* queries, uint32_t num_queries,
                    uint32_t query_dim, uint32_t k, uint32_t num_threads,
                    std::vector<std::vector<ScoredId>>* out,
                    const uint32_t* excludes = nullptr) const;

 private:
  float Score(const float* q, uint32_t node) const;
  /// Beam search on one layer from `entry`; returns up to `ef` best nodes
  /// (internal ids), best-first. When `visited_count` is non-null it is
  /// incremented by the number of distinct nodes touched (metrics).
  std::vector<ScoredId> SearchLayer(const float* q, uint32_t entry, uint32_t ef,
                                    int layer,
                                    uint64_t* visited_count = nullptr) const;

  HnswOptions options_;
  uint32_t dim_ = 0;
  size_t stride_ = 0;              // AlignedRowStride(dim_)
  double level_mult_ = 0.0;
  std::vector<uint32_t> ids_;      // internal id -> original row id
  AlignedFloatVector vectors_;     // packed padded copies, internal order
  // links_[layer][node] = neighbor list (internal ids). Layer 0 exists for
  // all nodes; higher layers only for nodes whose level reaches them.
  std::vector<std::vector<std::vector<uint32_t>>> links_;
  std::vector<int> node_level_;
  uint32_t entry_point_ = 0;
  int max_level_ = -1;
};

}  // namespace sisg

#endif  // SISG_CORE_HNSW_INDEX_H_
