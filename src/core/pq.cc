#include "core/pq.h"

#include <algorithm>
#include <cstring>

#include "common/math_util.h"

namespace sisg {
namespace {

uint32_t LargestDivisorAtMost(uint32_t dim, uint32_t m) {
  m = std::min(m, dim);
  while (m > 1 && dim % m != 0) --m;
  return std::max(m, 1u);
}

}  // namespace

Status PqCodebook::Train(const float* rows, uint32_t n, uint32_t dim,
                         size_t row_stride, const PqOptions& options) {
  if (rows == nullptr || n == 0 || dim == 0 || row_stride < dim) {
    return Status::InvalidArgument("pq: empty or inconsistent input");
  }
  if (options.m == 0 || options.ksub == 0 || options.ksub > 256) {
    return Status::InvalidArgument("pq: need m > 0 and 1 <= ksub <= 256");
  }
  m_ = LargestDivisorAtMost(dim, options.m);
  dsub_ = dim / m_;
  ksub_.assign(m_, 0);
  centroids_.assign(static_cast<size_t>(m_) * 256 * dsub_, 0.0f);

  std::vector<float> sub(static_cast<size_t>(n) * dsub_);
  for (uint32_t s = 0; s < m_; ++s) {
    bool all_zero = true;
    for (uint32_t r = 0; r < n; ++r) {
      const float* src =
          rows + static_cast<size_t>(r) * row_stride + static_cast<size_t>(s) * dsub_;
      std::memcpy(sub.data() + static_cast<size_t>(r) * dsub_, src,
                  dsub_ * sizeof(float));
      if (all_zero && L2Norm(src, dsub_) != 0.0f) all_zero = false;
    }
    if (all_zero) {
      // KMeans rejects all-zero input; a single zero centroid reconstructs
      // such a subspace exactly.
      ksub_[s] = 1;
      continue;
    }
    KMeans km;
    KMeansOptions kopts;
    kopts.num_clusters = options.ksub;
    kopts.iterations = options.kmeans_iterations;
    kopts.seed = options.seed + s;  // decorrelate subspace seedings
    SISG_RETURN_IF_ERROR(km.Fit(sub.data(), n, dsub_, kopts));
    ksub_[s] = km.num_clusters();
    std::memcpy(centroids_.data() + static_cast<size_t>(s) * 256 * dsub_,
                km.centroids().data(),
                static_cast<size_t>(km.num_clusters()) * dsub_ * sizeof(float));
  }
  return Status::OK();
}

void PqCodebook::Encode(const float* row, uint8_t* codes) const {
  for (uint32_t s = 0; s < m_; ++s) {
    const float* sub = row + static_cast<size_t>(s) * dsub_;
    uint32_t best = 0;
    float best_d = 0.0f;
    for (uint32_t c = 0; c < ksub_[s]; ++c) {
      const float* cent = Centroid(s, c);
      float d = 0.0f;
      for (uint32_t j = 0; j < dsub_; ++j) {
        const float t = sub[j] - cent[j];
        d += t * t;
      }
      if (c == 0 || d < best_d) {
        best = c;
        best_d = d;
      }
    }
    codes[s] = static_cast<uint8_t>(best);
  }
}

void PqCodebook::BuildAdcTable(const float* query, float* table) const {
  std::memset(table, 0, static_cast<size_t>(m_) * 256 * sizeof(float));
  for (uint32_t s = 0; s < m_; ++s) {
    const float* sub = query + static_cast<size_t>(s) * dsub_;
    float* out = table + static_cast<size_t>(s) * 256;
    for (uint32_t c = 0; c < ksub_[s]; ++c) {
      out[c] = Dot(sub, Centroid(s, c), dsub_);
    }
  }
}

}  // namespace sisg
