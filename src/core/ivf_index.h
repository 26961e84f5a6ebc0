#ifndef SISG_CORE_IVF_INDEX_H_
#define SISG_CORE_IVF_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/simd.h"
#include "common/status.h"
#include "common/top_k.h"
#include "core/kmeans.h"
#include "core/pq.h"

namespace sisg {

/// Inverted-file approximate nearest neighbor index over candidate
/// embedding rows. At production scale the matching stage cannot brute-force
/// a billion-item scan per query; IVF restricts each query to the `nprobe`
/// clusters nearest to it. Scores are inner products, so it serves both
/// modes of the MatchingEngine (rows pre-normalized for cosine).
struct IvfOptions {
  KMeansOptions kmeans;
  uint32_t nprobe = 8;  // clusters scanned per query (clamped at Build to
                        // the number of non-empty lists)
};

class IvfIndex {
 public:
  IvfIndex() = default;

  /// Indexes `rows` x `dim` row-major candidate vectors; zero rows
  /// (untrained items) are excluded. The data is copied into one contiguous
  /// 64-byte-aligned padded-stride block per posting list, so each probed
  /// list is a single blocked TopKScan through the dispatched SIMD kernels.
  Status Build(const float* data, uint32_t rows, uint32_t dim,
               const IvfOptions& options);

  uint32_t num_vectors() const { return num_indexed_; }
  uint32_t dim() const { return dim_; }
  /// nprobe actually used per query: IvfOptions::nprobe clamped to the
  /// number of non-empty posting lists.
  uint32_t effective_nprobe() const { return nprobe_; }

  /// Top-k rows by inner product with `query`, scanning the nprobe nearest
  /// lists. `exclude` (e.g. the query item itself) is skipped. Returns empty
  /// when the index is unbuilt or k == 0.
  std::vector<ScoredId> Query(const float* query, uint32_t k,
                              uint32_t exclude = UINT32_MAX) const;

  /// --- IVF-PQ: asymmetric-distance scans inside the posting lists. ---
  /// Trains a product codebook on the indexed rows and encodes every row
  /// into a code arena parallel to the CSR layout (list c's codes are the
  /// contiguous rows [list_begin_[c], list_begin_[c+1]) x m bytes). Queries
  /// then scan m-byte codes through a per-query ADC table instead of
  /// dim * 4-byte fp32 rows, and a ShortlistDepth(k) shortlist of
  /// approximate hits is re-scored exactly against the retained fp32 rows
  /// before the final top-k — the PQ error only has to keep the true
  /// winners inside the shortlist, not rank them.
  Status EnablePq(const PqOptions& options);
  bool pq_enabled() const { return pq_ != nullptr; }

 private:
  uint32_t dim_ = 0;
  uint32_t num_indexed_ = 0;
  uint32_t nprobe_ = 0;     // clamped to non-empty lists at Build
  size_t stride_ = 0;       // AlignedRowStride(dim_)
  KMeans quantizer_;
  // All posting lists packed back to back: list c occupies block rows
  // [list_begin_[c], list_begin_[c + 1]) of list_data_, each row `stride_`
  // floats (zero-padded past dim_); flat_ids_ maps block row -> original id.
  AlignedFloatVector list_data_;
  std::vector<uint32_t> flat_ids_;
  std::vector<uint32_t> list_begin_;
  // IVF-PQ state (absent unless EnablePq succeeded): per-row codes in CSR
  // order (num_indexed_ x m bytes) and an identity row-id array so the ADC
  // kernel can report block rows for the rerank pass.
  std::unique_ptr<PqCodebook> pq_;
  AlignedByteVector pq_codes_;
  std::vector<uint32_t> row_ids_;
};

}  // namespace sisg

#endif  // SISG_CORE_IVF_INDEX_H_
