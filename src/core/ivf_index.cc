#include "core/ivf_index.h"

#include <algorithm>
#include <cstring>

#include "common/math_util.h"
#include "obs/metrics.h"

namespace sisg {

Status IvfIndex::Build(const float* data, uint32_t rows, uint32_t dim,
                       const IvfOptions& options) {
  if (data == nullptr || rows == 0 || dim == 0) {
    return Status::InvalidArgument("ivf: empty input");
  }
  if (options.nprobe == 0) {
    return Status::InvalidArgument("ivf: nprobe must be > 0");
  }
  SISG_RETURN_IF_ERROR(quantizer_.Fit(data, rows, dim, options.kmeans));
  dim_ = dim;
  stride_ = AlignedRowStride(dim);
  num_indexed_ = 0;

  // Pass 1: assign live rows to clusters and count list sizes, so every
  // posting list lands contiguous in one aligned block (pass 2 fills it).
  const uint32_t num_clusters = quantizer_.num_clusters();
  std::vector<uint32_t> assignment(rows, UINT32_MAX);
  std::vector<uint32_t> list_size(num_clusters, 0);
  for (uint32_t r = 0; r < rows; ++r) {
    const float* row = data + static_cast<size_t>(r) * dim;
    if (L2Norm(row, dim) == 0.0f) continue;
    const uint32_t c = quantizer_.Assign(row);
    assignment[r] = c;
    ++list_size[c];
    ++num_indexed_;
  }
  list_begin_.assign(num_clusters + 1, 0);
  for (uint32_t c = 0; c < num_clusters; ++c) {
    list_begin_[c + 1] = list_begin_[c] + list_size[c];
  }
  list_data_.assign(static_cast<size_t>(num_indexed_) * stride_, 0.0f);
  flat_ids_.assign(num_indexed_, 0);
  std::vector<uint32_t> cursor(list_begin_.begin(), list_begin_.end() - 1);
  for (uint32_t r = 0; r < rows; ++r) {
    if (assignment[r] == UINT32_MAX) continue;
    const uint32_t slot = cursor[assignment[r]]++;
    flat_ids_[slot] = r;
    std::memcpy(list_data_.data() + static_cast<size_t>(slot) * stride_,
                data + static_cast<size_t>(r) * dim, dim * sizeof(float));
  }

  // Clamp nprobe to the lists that can contribute anything; probing an
  // empty list is a wasted centroid distance, and asking for more lists
  // than exist would silently repeat work.
  uint32_t non_empty = 0;
  for (uint32_t c = 0; c < num_clusters; ++c) non_empty += list_size[c] > 0;
  nprobe_ = std::min(options.nprobe, std::max(non_empty, 1u));
  return Status::OK();
}

Status IvfIndex::EnablePq(const PqOptions& options) {
  if (num_indexed_ == 0) {
    return Status::FailedPrecondition("ivf: index not built");
  }
  auto book = std::make_unique<PqCodebook>();
  SISG_RETURN_IF_ERROR(
      book->Train(list_data_.data(), num_indexed_, dim_, stride_, options));
  const uint32_t m = book->m();
  pq_codes_.assign(static_cast<size_t>(num_indexed_) * m, 0);
  for (uint32_t row = 0; row < num_indexed_; ++row) {
    book->Encode(list_data_.data() + static_cast<size_t>(row) * stride_,
                 pq_codes_.data() + static_cast<size_t>(row) * m);
  }
  row_ids_.resize(num_indexed_);
  for (uint32_t row = 0; row < num_indexed_; ++row) row_ids_[row] = row;
  pq_ = std::move(book);
  return Status::OK();
}

std::vector<ScoredId> IvfIndex::Query(const float* query, uint32_t k,
                                      uint32_t exclude) const {
  if (num_indexed_ == 0 || k == 0) return {};
  const SimdOps& ops = GetSimdOps();
  uint64_t probed = 0;
  uint64_t scanned = 0;
  uint64_t bytes = 0;
  std::vector<ScoredId> result;

  if (pq_ != nullptr) {
    // ADC path: build the per-query table once, scan m-byte codes, then
    // re-score the shortlist exactly against the fp32 rows. The shortlist
    // selector collects BLOCK rows (row_ids_ is the identity map) because
    // the rerank needs row addresses; the exclude is applied at rerank,
    // where external ids are known, so the shortlist is one deeper.
    const uint32_t m = pq_->m();
    std::vector<float> table(static_cast<size_t>(m) * 256);
    pq_->BuildAdcTable(query, table.data());
    TopKSelector shortlist(ShortlistDepth(k, num_indexed_));
    for (uint32_t c : quantizer_.AssignTopN(query, nprobe_)) {
      const uint32_t begin = list_begin_[c];
      const uint32_t len = list_begin_[c + 1] - begin;
      ++probed;
      if (len == 0) continue;
      scanned += len;
      bytes += static_cast<uint64_t>(len) * m;
      ops.adc_scan(table.data(),
                   pq_codes_.data() + static_cast<size_t>(begin) * m, m, len,
                   row_ids_.data() + begin, UINT32_MAX, &shortlist);
    }
    TopKSelector sel(k);
    uint64_t reranked = 0;
    for (const ScoredId& cand : shortlist.Take()) {
      const uint32_t row = cand.id;
      const uint32_t id = flat_ids_[row];
      if (id == exclude) continue;
      ++reranked;
      const float s = ops.dot(
          query, list_data_.data() + static_cast<size_t>(row) * stride_, dim_);
      if (s > sel.Threshold()) sel.Push(s, id);
    }
    bytes += reranked * dim_ * sizeof(float);
    result = sel.Take();
    if (obs::MetricsEnabled()) {
      static obs::Counter* const m_rerank =
          obs::MetricsRegistry::Global().counter("serve.rerank_rows");
      m_rerank->Add(reranked);
    }
  } else {
    TopKSelector sel(k);
    for (uint32_t c : quantizer_.AssignTopN(query, nprobe_)) {
      const uint32_t begin = list_begin_[c];
      const uint32_t len = list_begin_[c + 1] - begin;
      ++probed;
      if (len == 0) continue;
      scanned += len;
      bytes += static_cast<uint64_t>(len) * dim_ * sizeof(float);
      ops.top_k_scan(query,
                     list_data_.data() + static_cast<size_t>(begin) * stride_,
                     stride_, len, dim_, flat_ids_.data() + begin, exclude,
                     &sel);
    }
    result = sel.Take();
  }
  if (obs::MetricsEnabled()) {
    static obs::Counter* const m_probed =
        obs::MetricsRegistry::Global().counter("serve.ivf_lists_probed");
    static obs::Counter* const m_scanned =
        obs::MetricsRegistry::Global().counter("serve.ivf_rows_scanned");
    static obs::Counter* const m_bytes =
        obs::MetricsRegistry::Global().counter("serve.bytes_scanned");
    static obs::Counter* const m_streamed =
        obs::MetricsRegistry::Global().counter("serve.bytes_streamed");
    m_probed->Add(probed);
    m_scanned->Add(scanned);
    // Bytes scored: list rows (m-byte codes or fp32 rows) plus fp32 rerank
    // rows. A posting-list walk shares nothing across queries, so each of
    // them is also streamed (scanned/streamed ratio 1).
    m_bytes->Add(bytes);
    m_streamed->Add(bytes);
  }
  return result;
}

}  // namespace sisg
