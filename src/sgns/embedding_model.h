#ifndef SISG_SGNS_EMBEDDING_MODEL_H_
#define SISG_SGNS_EMBEDDING_MODEL_H_

#include <cstdint>
#include <string>

#include "common/simd.h"
#include "common/status.h"

namespace sisg {

/// Input ("v") and output ("v'") embedding matrices of a skip-gram model,
/// one row per vocab entry. In SISG every token — item, SI, user type —
/// has BOTH an input and an output vector (this is what makes SISG-F more
/// expressive than EGES, Section IV-A).
///
/// Rows are stored 64-byte aligned with a padded stride (dim rounded up to
/// a whole cache line) so SIMD loads in the training kernels never split a
/// cache line. The padding is zero-filled and invisible to callers: row
/// accessors return pointers to `dim()` valid floats, and the on-disk
/// format stays dense (dim floats per row, unchanged from the seed).
class EmbeddingModel {
 public:
  EmbeddingModel() = default;

  /// Allocates rows x dim and applies word2vec init: input rows uniform in
  /// [-0.5/dim, 0.5/dim], output rows zero.
  Status Init(uint32_t rows, uint32_t dim, uint64_t seed);

  uint32_t rows() const { return rows_; }
  uint32_t dim() const { return dim_; }
  /// Floats between consecutive row starts (>= dim, multiple of 16).
  size_t row_stride() const { return stride_; }

  float* Input(uint32_t row) {
    return input_.data() + static_cast<size_t>(row) * stride_;
  }
  const float* Input(uint32_t row) const {
    return input_.data() + static_cast<size_t>(row) * stride_;
  }
  float* Output(uint32_t row) {
    return output_.data() + static_cast<size_t>(row) * stride_;
  }
  const float* Output(uint32_t row) const {
    return output_.data() + static_cast<size_t>(row) * stride_;
  }

  /// Binary serialization (magic + dims + both matrices, dense rows).
  Status Save(const std::string& path) const;
  static StatusOr<EmbeddingModel> Load(const std::string& path);

 private:
  uint32_t rows_ = 0;
  uint32_t dim_ = 0;
  size_t stride_ = 0;
  AlignedFloatVector input_;
  AlignedFloatVector output_;
};

}  // namespace sisg

#endif  // SISG_SGNS_EMBEDDING_MODEL_H_
