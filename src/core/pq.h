#ifndef SISG_CORE_PQ_H_
#define SISG_CORE_PQ_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/kmeans.h"

namespace sisg {

/// Product-quantization options. `m` requests the number of subspaces; it is
/// clamped at Train to the largest divisor of dim not exceeding the request,
/// so every subspace has the same width dsub = dim / m. `ksub` caps the
/// centroids per subspace (<= 256 so one code fits a byte; KMeans may clamp
/// further when a subspace has few distinct rows).
struct PqOptions {
  uint32_t m = 16;
  uint32_t ksub = 256;
  uint32_t kmeans_iterations = 12;
  uint64_t seed = 41;
};

/// A trained product quantizer: m per-subspace codebooks of up to 256
/// centroids each, trained with the repo's own KMeans. Encoding maps a dim
/// float row to m byte codes (dim/m * 4 / 1 compression, e.g. 32x at
/// dim = 128, m = 16); querying builds a per-query ADC table (m x 256 inner
/// products of query subvectors against centroids) that the adc_scan kernel
/// consumes — candidate scoring then never touches the fp32 rows.
class PqCodebook {
 public:
  PqCodebook() = default;

  /// Trains on `n` rows of `dim` floats spaced `row_stride` floats apart.
  /// A subspace whose subvectors are all zero trains to a single zero
  /// centroid instead of failing (KMeans rejects all-zero input).
  Status Train(const float* rows, uint32_t n, uint32_t dim, size_t row_stride,
               const PqOptions& options);

  uint32_t m() const { return m_; }

  /// Writes the m nearest-centroid codes (squared euclidean per subspace)
  /// for one row of dim() floats.
  void Encode(const float* row, uint8_t* codes) const;

  /// Fills the per-query ADC table (m() * 256 floats): table[s * 256 + c] =
  /// dot(query subvector s, centroid c of subspace s). Slots past a
  /// subspace's live centroid count are zero and never referenced by codes.
  void BuildAdcTable(const float* query, float* table) const;

 private:
  const float* Centroid(uint32_t s, uint32_t c) const {
    return centroids_.data() +
           (static_cast<size_t>(s) * 256 + c) * dsub_;
  }

  uint32_t m_ = 0;
  uint32_t dsub_ = 0;
  std::vector<uint32_t> ksub_;    // live centroids per subspace (1..256)
  std::vector<float> centroids_;  // m x 256 x dsub, unused slots zero
};

}  // namespace sisg

#endif  // SISG_CORE_PQ_H_
