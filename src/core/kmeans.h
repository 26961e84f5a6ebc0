#ifndef SISG_CORE_KMEANS_H_
#define SISG_CORE_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace sisg {

struct KMeansOptions {
  uint32_t num_clusters = 64;
  uint32_t iterations = 12;
  uint64_t seed = 41;
};

/// Lloyd's k-means over row-major float vectors with k-means++-style
/// farthest-point seeding. The coarse quantizer of the IVF index.
class KMeans {
 public:
  KMeans() = default;

  /// Fits on `rows` x `dim` data. Rows whose norm is zero are ignored.
  /// num_clusters is clamped to the number of non-zero rows.
  Status Fit(const float* data, uint32_t rows, uint32_t dim,
             const KMeansOptions& options);

  uint32_t num_clusters() const { return num_clusters_; }
  uint32_t dim() const { return dim_; }

  const float* Centroid(uint32_t c) const {
    return centroids_.data() + static_cast<size_t>(c) * dim_;
  }

  /// Full centroid matrix (num_clusters x dim row-major).
  const std::vector<float>& centroids() const { return centroids_; }

  /// Index of the nearest centroid (squared euclidean).
  uint32_t Assign(const float* vec) const;

  /// The `n` nearest centroids, closest first.
  std::vector<uint32_t> AssignTopN(const float* vec, uint32_t n) const;

 private:
  uint32_t num_clusters_ = 0;
  uint32_t dim_ = 0;
  std::vector<float> centroids_;
};

}  // namespace sisg

#endif  // SISG_CORE_KMEANS_H_
